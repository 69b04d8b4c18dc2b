"""Beurling density proxies, error integrals, and the paper's theorem checks.

beurling_density counts a plain lattice a Z x b Z in closed discs K_n.  The
error integrals I_n and J_n couple K_n with the thickened complement (resp.
thickened ball) of its index set through the local maximal function of
|V_g g|; on the plane both reduce to one-dimensional integrals of the
Gaussian's radial profile against two-disk lens areas, with closed-form
tails.  check_counting reads the counting theorem's side from its bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import frames, groups
from .frames import FrameBounds, PointSet
from .quadrature import lens_area, refine_rows
from .reps import GAUSSIAN_PROFILE, RadialProfile

CHECK_TOL = 1e-9  # a theorem check passes while it fails by at most this
# the annular-decay exponent of the plane: mu(B(r) \ B(r - s)) <= C_delta
# (s / r)^delta mu(B(r)) holds with delta = 1 and C_delta = 2 (1 - (1 - t)^2
# <= 2 t), and a smaller delta only weakens the hypotheses; alpha + DELTA - 1
# is written alpha - (1 - DELTA), which rounds no small alpha > 0 to 0
DELTA = 1.0
SLOPE_SLACK = 0.15  # T4.3 passes while the fitted slope is at most -gamma + this


@dataclass(frozen=True)
class CountingRecord:
    """inf/sup of #(Lambda intersect xK) over the sampled center grid."""

    n: int
    radius: float
    inf_count: int
    sup_count: int
    measure: float
    grid_spacing: float
    centers_sampled: int


@dataclass(frozen=True)
class ErrorIntegralRecord:
    n: int
    kind: str  # "I" or "J"
    value: float
    tol: float
    measure: float

    @property
    def normalized(self) -> float:
        return self.value / self.measure


@dataclass(frozen=True)
class TheoremCheck:
    """One inequality instance; margin is signed so pass <=> margin >= -CHECK_TOL."""

    theorem: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    constant: float | None = None
    diagnostic: bool = False
    inputs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"theorem": self.theorem, "lhs": self.lhs, "rhs": self.rhs,
                "margin": self.margin, "passed": self.passed,
                "constant": self.constant, "diagnostic": self.diagnostic,
                "inputs": dict(self.inputs)}


@dataclass(frozen=True)
class HoleExperiment:
    lattice_a: float
    lattice_b: float
    hole_radius: float
    bounds: FrameBounds
    theorem_radius: float | None
    passed: bool
    tail_value: float | None
    tail_envelope: float | None
    inputs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"lattice_a": self.lattice_a, "lattice_b": self.lattice_b,
                "hole_radius": self.hole_radius, "bounds": self.bounds.to_json(),
                "theorem_radius": self.theorem_radius, "passed": self.passed,
                "tail_value": self.tail_value, "tail_envelope": self.tail_envelope,
                "inputs": dict(self.inputs)}


@dataclass(frozen=True)
class DensityEstimate:
    """Largest-n density proxies and the per-n counting records."""

    lower: float
    upper: float
    records: tuple
    rel_sep: int


# -- Counting --------------------------------------------------------------------


def beurling_density(lam: PointSet, exhaustion: Sequence[groups.Ball],
                     center_grid_spacing: float | None = None) -> DensityEstimate:
    """Lower/upper density proxies inf/sup #(Lambda in xK_n) / mu(K_n).

    Lambda is a plain lattice and each K_n a closed disk.  The inf/sup over
    the plane is replaced by a center grid covering one fundamental cell (the
    lattice is periodic, so this is exhaustive up to the recorded spacing),
    and every (K_n, center) row is counted in one call.  The true densities
    are n -> infinity limits; the full sequence is recorded.  ``rel_sep`` is
    Rel_Q(Lambda) for the disk Q of the plane of radius min(a, b) / 2.
    """
    if not exhaustion:
        raise ValueError("empty exhaustion")
    if lam.hole_radius:
        raise ValueError("Beurling density counts a plain lattice, "
                         f"not hole_radius = {lam.hole_radius:g}")
    if not all(k.closed for k in exhaustion):
        raise ValueError("Beurling density counts closed balls K_n, not open ones")
    spacing = center_grid_spacing or min(lam.a, lam.b) / 8.0
    xs = np.arange(0.0, lam.a - 1e-12, spacing)
    ys = np.arange(0.0, lam.b - 1e-12, spacing)
    centers = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    q = groups.ball(groups.euclidean_metric(dim=2), min(lam.a, lam.b) / 2.0)
    rel = frames.relative_separation(lam, q).rel_sep
    rows = lam.lattice_count_near(np.tile(centers[:, 0], len(exhaustion)),
                                  np.tile(centers[:, 1], len(exhaustion)),
                                  np.repeat([k.radius for k in exhaustion], len(centers)))
    records = tuple(
        CountingRecord(idx, k.radius, int(counts.min()), int(counts.max()),
                       k.measure, spacing, len(centers))
        for idx, (k, counts) in enumerate(zip(exhaustion,
                                              rows.reshape(len(exhaustion), -1))))
    last = records[-1]
    return DensityEstimate(last.inf_count / last.measure,
                           last.sup_count / last.measure, records, rel)


# -- Error integrals ----------------------------------------------------------------


def _lens_reduced_integrals(prof: RadialProfile, rho: float, radii: Sequence[float],
                            kind: str, tol: float) -> list:
    """2 pi int F(u) u [pi R_a^2 - lens(R_a, R_b, u)] du with closed-form ends,
    one value per radius r, where F = prof.maximal_sq.

    kind "I": R_a = r, R_b = r - rho (bracket = area of K_n outside the
    shifted inner disk); kind "J": R_a = r + rho, R_b = r.  The bracket is
    flat below u = rho and vanishes from u = R_a + R_b on.  The middle parts
    of all radii refine together, each to the value it has on its own.
    """
    whole = prof.mass_outside(rho, 0.0)
    plateau = whole - prof.mass_outside(rho, rho)
    ends = [(r, r - rho) if kind == "I" else (r + rho, r) for r in radii]
    # kind I with r <= rho has a closed form and no middle part
    refined = [i for i, (_, r_b) in enumerate(ends) if kind == "J" or r_b > 0.0]
    r_a, r_b = np.array([ends[i] for i in refined]).reshape(-1, 2).T
    const_area = math.pi * r_a * r_a

    def integrand(u, rows):
        # F underflows to exactly 0 far out, where the product is +0.0 whatever
        # the bracket: lens areas are taken at the live nodes only
        out = prof.maximal_sq(u, rho)
        live = out != 0.0
        ul = u[live]
        row = rows[np.nonzero(live)[0]]
        bracket = const_area[row] - lens_area(r_a[row], r_b[row], ul)
        out[live] = out[live] * 2.0 * math.pi * ul * bracket
        return out

    mids = dict(zip(refined, refine_rows(integrand, np.full(len(refined), rho),
                                         r_a + r_b, tol).tolist()))
    values = []
    for i, (r, (ra, rb)) in enumerate(zip(radii, ends)):
        if i not in mids:
            values.append(math.pi * r * r * whole)
            continue
        area = math.pi * ra * ra
        head = (area - math.pi * rb * rb) * plateau
        values.append(head + mids[i] + area * prof.mass_outside(rho, ra + rb))
    return values


def _error_integrals(q: groups.Ball, ks: Sequence[groups.Ball], kind: str, tol: float) -> list:
    values = _lens_reduced_integrals(GAUSSIAN_PROFILE, q.radius, [k.radius for k in ks],
                                     kind, tol)
    return [ErrorIntegralRecord(n, kind, value, tol, k.measure)
            for n, (k, value) in enumerate(zip(ks, values))]


def error_integral_I(q: groups.Ball, ks: Sequence[groups.Ball], tol: float = 1e-8) -> list:
    """I_n for every K_n of the exhaustion ks, one record each, n = its
    position: inner K_n centers against the Q-thickened complement of K_n."""
    return _error_integrals(q, ks, "I", tol)


def error_integral_J(q: groups.Ball, ks: Sequence[groups.Ball], tol: float = 1e-8) -> list:
    """J_n for every K_n of the exhaustion ks, one record each, n = its
    position: outer centers against the Q-thickened K_n."""
    return _error_integrals(q, ks, "J", tol)


# -- Theorem checks --------------------------------------------------------------------


def assemble_counting_constant(q: groups.Ball, bounds: FrameBounds) -> dict:
    """C = (B / (A ||g||^4)) * (C(g, Q) / mu(Q)) from the proof's assembly."""
    cover = frames.lemma_cover_constant(q)
    mu_q = q.measure
    norm4 = GAUSSIAN_PROFILE.norm_sq ** 2
    c = (bounds.upper / (bounds.lower * norm4)) * (cover.constant / mu_q)
    return {"C": c, "cover_constant": cover.constant, "n_cover": cover.n_cover,
            "mu_q": mu_q, "norm4": norm4}


def check_counting(q: groups.Ball, bounds: FrameBounds, *,
                   estimate: DensityEstimate,
                   integrals: Sequence[ErrorIntegralRecord],
                   diagnostic: bool = False) -> list:
    """The counting theorem on the side of ``bounds``, one record per K_n.

    Frame bounds: inf_x #(Lambda in xK_n) >= d_pi (mu(K_n) - C I_n) (T3.3),
    plus the density consequence at the largest n (T3.6).  Riesz bounds:
    sup_x #(Lambda in xK_n) <= d_pi (mu(K_n) + C J_n) (T3.5).  ``estimate``
    is the beurling_density result, whose records give each K_n's radius,
    measure and counts, and ``integrals`` that side's error-integral records
    of the same exhaustion, n = 0, 1, ... in the estimate's order.
    """
    if bounds.kind not in ("frame", "riesz"):
        raise ValueError(f"counting checks need frame or riesz bounds (A > 0), "
                         f"not {bounds.kind}")
    frame = bounds.kind == "frame"
    kind = "I" if frame else "J"
    records = estimate.records
    if ([(i.kind, i.n, i.measure) for i in integrals]
            != [(kind, rec.n, rec.measure) for rec in records]):
        raise ValueError(f"integrals must be the {kind}_n records of the estimate's "
                         "exhaustion, n = 0, 1, ... in its order")
    const = assemble_counting_constant(q, bounds)
    c, d_pi = const["C"], GAUSSIAN_PROFILE.formal_degree
    checks = []
    for rec, integ in zip(records, integrals):
        inputs = {"radius": rec.radius, "measure": rec.measure,
                  "inf_count": rec.inf_count, "sup_count": rec.sup_count,
                  "integral": integ.value, "integral_kind": kind,
                  "A": bounds.lower, "B": bounds.upper, "d_pi": d_pi,
                  **const}
        count = float(rec.inf_count if frame else rec.sup_count)
        error = c * integ.value
        rhs = d_pi * (rec.measure - error if frame else rec.measure + error)
        margin = count - rhs if frame else rhs - count
        checks.append(TheoremCheck("T3.3" if frame else "T3.5", count, rhs, margin,
                                   margin >= -CHECK_TOL, c, diagnostic, inputs))
    if frame:
        last, integ = records[-1], integrals[-1]
        eps = d_pi * c * integ.value / last.measure
        lhs = last.inf_count / last.measure
        rhs = d_pi - eps
        checks.append(TheoremCheck("T3.6", lhs, rhs, lhs - rhs,
                                   lhs - rhs >= -CHECK_TOL, c, diagnostic,
                                   {"radius": last.radius, "epsilon": eps,
                                    "d_pi": d_pi, **const}))
    return checks


def check_polynomial_error_exponent(count_records: Sequence[CountingRecord],
                                    integral_records: Sequence[ErrorIntegralRecord],
                                    alpha: float) -> TheoremCheck:
    """Fit the decay exponent of the normalized error integrals.

    Passes if the fitted log-log slope is at most -alpha*DELTA/(DELTA+alpha)
    plus SLOPE_SLACK; also fits the smallest constant C making
    1 -/+ C r^{-alpha DELTA/(DELTA+alpha)} a valid envelope of count/(d_pi mu):
    inf counts for I_n records (T4.3i), sup counts for J_n ones (T4.3ii).
    """
    if len(count_records) != len(integral_records):
        raise ValueError("counting and integral records must align one-to-one")
    radii = [rec.radius for rec in count_records]
    if len(radii) < 4 or max(radii) < 4.0 * min(radii):
        raise ValueError("insufficient radii: need >= 4 spanning a factor of 4")
    lower = integral_records[0].kind == "I"
    d_pi = GAUSSIAN_PROFILE.formal_degree
    gamma = alpha * DELTA / (DELTA + alpha)
    logs_r = np.log(radii)
    logs_v = np.log([max(rec.normalized, 1e-300) for rec in integral_records])
    slope = float(np.polyfit(logs_r, logs_v, 1)[0])
    threshold = -gamma + SLOPE_SLACK
    fitted = 0.0
    for crec in count_records:
        ratio = (crec.inf_count if lower else crec.sup_count) / (d_pi * crec.measure)
        dev = (1.0 - ratio) if lower else (ratio - 1.0)
        fitted = max(fitted, dev * crec.radius ** gamma)
    return TheoremCheck("T4.3i" if lower else "T4.3ii", slope, threshold,
                        threshold - slope, slope <= threshold, fitted, False,
                        {"gamma": gamma, "alpha": alpha, "delta": DELTA,
                         "radii": list(radii), "side": "inf" if lower else "sup",
                         "normalized": [rec.normalized for rec in integral_records]})


# -- Spectral-gap hole experiment ---------------------------------------------------------


def hole_radius_bound(c0: float, alpha: float, c: float, a: float, b: float) -> float:
    """R = (C0^2 C B/A)^{1/(alpha+DELTA-1)}; any larger ball must meet Lambda."""
    if alpha <= 1.0 - DELTA:
        raise ValueError("hypothesis violated: alpha + DELTA must exceed 1")
    if a <= 0.0:
        raise ValueError("lower frame bound must be positive")
    if c0 <= 0.0 or c <= 0.0 or b <= 0.0:
        raise ValueError("constants must be positive")
    try:
        radius = (c0 * c0 * c * b / a) ** (1.0 / (alpha - (1.0 - DELTA)))
    except OverflowError:
        radius = math.inf
    if math.isinf(radius):  # an infinite R would pass every hole
        raise OverflowError("the theorem radius (C0^2 C B/A)^(1/alpha) overflows")
    return radius


TAIL_FIT_RADIUS = 6.0  # the tail constant is fitted on r0 < r <= this
TAIL_FIT_STEP = 0.25  # in steps of this


def fit_tail_constant(r0: float, alpha: float, c0: float, norm4: float = 1.0) -> tuple:
    """Smallest C'' with tail(r) <= C0^2 ||g||^4 C'' r^{1-DELTA-alpha} on the
    fitted grid; tail(r) is the mass of M_Q^2 outside the radius-(r - r0) ball,
    read from the Gaussian's radial profile."""
    best, arg = 0.0, r0 + TAIL_FIT_STEP
    r = r0 + TAIL_FIT_STEP
    while r <= TAIL_FIT_RADIUS + 1e-9:
        tail = GAUSSIAN_PROFILE.mass_outside(r0, r - r0)
        cand = tail * r ** (alpha - (1.0 - DELTA)) / (c0 * c0 * norm4)
        if cand > best:
            best, arg = cand, r
        r += TAIL_FIT_STEP
    return best, arg


def run_hole_falsification(lattice_a: float, lattice_b: float,
                           hole_radii: Sequence[float], section_radius: float,
                           r0: float = 1.25, alpha: float = 2.0,
                           margin: float = 3.0) -> list:
    """Search for counterexamples to the spectral-gap radius bound.

    For each hole radius, removes the open hole at the origin from the lattice,
    measures truncated-section bounds, assembles the constant C = C' C'' from
    the cover count and the fitted tail certificate, and asserts that whenever
    the section still estimates a frame (A > 0) the hole radius respects the
    theorem radius.  Also checks the tail integral against its polynomial
    envelope at each hole radius beyond r0.
    """
    if lattice_a * lattice_b >= 1.0:
        raise ValueError("base lattice must be in the frame regime (a*b < 1)")
    if r0 < 1.0:
        raise ValueError("Q radius r0 must be at least 1")
    if alpha <= 1.0 - DELTA:
        raise ValueError("hypothesis violated: alpha + DELTA must exceed 1")
    radii = sorted(float(r) for r in hole_radii)
    if radii and section_radius < 2.0 * radii[-1]:
        raise ValueError("section radius too small relative to the largest hole")
    q = groups.ball(groups.euclidean_metric(dim=2), r0)
    exponent = (2.0 + alpha) / 2.0
    c0, r_star = GAUSSIAN_PROFILE.envelope_constant(exponent)
    cover = frames.lemma_cover_constant(q)
    mu_q = math.pi * r0 * r0
    c_prime = cover.constant / mu_q
    norm4 = GAUSSIAN_PROFILE.norm_sq ** 2
    c_dprime, c_dprime_arg = fit_tail_constant(r0, alpha, c0, norm4)
    c_total = c_prime * c_dprime
    out = []
    for rh in radii:
        bounds = frames.frame_operator_spectrum(frames.lattice(lattice_a, lattice_b, rh),
                                                section_radius=section_radius,
                                                margin=margin)
        is_frame = bounds.kind == "frame"
        theorem_radius = (hole_radius_bound(c0, alpha, c_total, bounds.lower, bounds.upper)
                          if is_frame else None)
        no_counterexample = (not is_frame) or rh <= theorem_radius + CHECK_TOL
        tail_value = tail_env = None
        tail_ok = True
        if rh > r0:
            tail_value = GAUSSIAN_PROFILE.mass_outside(r0, rh - r0)
            tail_env = c0 * c0 * norm4 * c_dprime * rh ** (1.0 - DELTA - alpha)
            tail_ok = tail_value <= tail_env * (1.0 + 1e-9)
        inputs = {"C0": c0, "C_prime": c_prime, "C_dprime": c_dprime,
                  "C": c_total, "n_cover": cover.n_cover, "mu_q": mu_q,
                  "r0": r0, "alpha": alpha, "delta": DELTA,
                  "section_radius": section_radius, "margin": margin,
                  "tail_fit_argmax": c_dprime_arg,
                  "calibration": {"exponent": exponent, "argmax": [r_star, 0.0]}}
        out.append(HoleExperiment(lattice_a, lattice_b, rh, bounds,
                                  theorem_radius, no_counterexample and tail_ok,
                                  tail_value, tail_env, inputs))
    return out
