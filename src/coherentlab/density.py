"""Counting functions, Beurling densities, error integrals, and theorem checks.

The two error integrals couple a ball K_n with the thickened complement
(resp. thickened ball) of its index set through the local maximal function of
|V_g g|.  On the plane both reduce exactly to one-dimensional integrals of the
Gaussian's radial profile against two-disk lens areas, with closed-form tails;
the finite model evaluates them as exhaustive double sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import frames, groups, reps
from .frames import FrameBounds, PointSet
from .quadrature import gauss_profile_mass_outside, lens_area, refine_trapezoid
from .reps import RadialProfile, RepModel


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

    def to_json(self) -> dict:
        return {"n": self.n, "radius": self.radius, "inf_count": self.inf_count,
                "sup_count": self.sup_count, "measure": self.measure,
                "grid_spacing": self.grid_spacing,
                "centers_sampled": self.centers_sampled}


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

    def to_json(self) -> dict:
        return {"n": self.n, "kind": self.kind, "value": self.value,
                "tol": self.tol, "measure": self.measure,
                "normalized": self.normalized}


@dataclass(frozen=True)
class TheoremCheck:
    """One inequality instance; margin is signed so pass <=> margin >= -tol."""

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
    """Largest-n density proxies; iterating yields (lower, upper)."""

    lower: float
    upper: float
    records: tuple
    rel_sep: int

    def __iter__(self):
        return iter((self.lower, self.upper))


# -- Counting --------------------------------------------------------------------


def count_points(lam: PointSet, center, k) -> int:
    """Exact #(Lambda intersect centerK).

    A closed ball on a plain lattice is counted in closed form, column by
    column; every other case counts the points of the restriction.
    """
    if isinstance(k, groups.Box):
        box = k.translate(center) if center is not None else k
        if lam.is_lattice:
            cx, cy = box.center
            hx, hy = box.half_widths
            pts = lam.lattice_points_near(cx, cy, math.hypot(hx, hy) + 1e-12)
            return sum(1 for p in pts if box.contains(p))
        return sum(1 for p in lam.points if box.contains(p))
    if not isinstance(k, groups.Ball):
        raise ValueError("K must be a Ball or a Box")
    ball = k.translate(center) if center is not None else k
    if lam.kind == frames.LATTICE and ball.closed:
        cx, cy = ball.center
        return lam.lattice_count_near(float(cx), float(cy), ball.radius)
    return len(lam.restrict(ball))


def beurling_density(lam: PointSet, metric: groups.PeriodicMetric,
                     exhaustion: Sequence[groups.Ball],
                     center_grid_spacing: float | None = None) -> DensityEstimate:
    """Lower/upper density proxies inf/sup #(Lambda in xK_n) / mu(K_n).

    The inf/sup over the group is replaced by a center grid covering one
    fundamental cell (lattices are periodic, so this is exhaustive up to the
    recorded spacing); the finite kind enumerates every center.  The true
    densities are n -> infinity limits; the full sequence is recorded.
    """
    if not exhaustion:
        raise ValueError("empty exhaustion")
    if lam.kind == frames.FINITE_SUBSET:
        group = groups.finite_cyclic_sq(lam.modulus)
        centers = group.elements()
        spacing = 1.0
    elif lam.is_lattice:
        spacing = center_grid_spacing or min(lam.a, lam.b) / 8.0
        xs = np.arange(0.0, lam.a - 1e-12, spacing)
        ys = np.arange(0.0, lam.b - 1e-12, spacing)
        centers = [(float(x), float(y)) for x in xs for y in ys]
    else:
        spacing = center_grid_spacing or 0.5
        if lam.points:
            lo_x = min(p[0] for p in lam.points)
            hi_x = max(p[0] for p in lam.points)
            lo_y = min(p[1] for p in lam.points)
            hi_y = max(p[1] for p in lam.points)
            xs = np.arange(lo_x, hi_x + spacing, spacing)
            ys = np.arange(lo_y, hi_y + spacing, spacing)
            centers = [(float(x), float(y)) for x in xs for y in ys]
        else:
            centers = [(0.0, 0.0)]
    if lam.is_lattice:
        q = groups.ball(groups.euclidean_metric(dim=2), None,
                        min(lam.a, lam.b) / 2.0)
        rel = frames.relative_separation(lam, q).rel_sep
    else:
        rel = 1 if lam.points else 0
    records = []
    for idx, k in enumerate(exhaustion):
        counts = [count_points(lam, c, k) for c in centers]
        measure = (float(len(k.points)) if k.points is not None
                   else groups.ball_measure(k.metric, k.radius, k.closed))
        records.append(CountingRecord(idx, k.radius, min(counts), max(counts),
                                      measure, spacing, len(centers)))
    last = records[-1]
    return DensityEstimate(last.inf_count / last.measure,
                           last.sup_count / last.measure,
                           tuple(records), rel)


# -- Error integrals ----------------------------------------------------------------


def _lens_reduced_integral(prof: RadialProfile, rho: float, r: float, kind: str,
                           tol: float) -> float:
    """2 pi int F(u) u [pi R_a^2 - lens(R_a, R_b, u)] du with closed-form ends,
    where F = prof.maximal_sq.

    kind "I": R_a = r, R_b = r - rho (bracket = area of K_n outside the
    shifted inner disk); kind "J": R_a = r + rho, R_b = r.  The bracket is
    flat below u = rho and vanishes from u = R_a + R_b on.
    """
    if kind == "I" and r - rho <= 0.0:
        return math.pi * r * r * prof.mass_outside(rho, 0.0)
    r_a, r_b = (r, r - rho) if kind == "I" else (r + rho, r)
    const_area = math.pi * r_a * r_a
    u_zero = r_a + r_b
    flat = const_area - math.pi * r_b * r_b
    head = flat * (prof.mass_outside(rho, 0.0) - prof.mass_outside(rho, rho))

    def integrand(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        bracket = const_area - lens_area(r_a, r_b, u)
        return prof.maximal_sq(u, rho) * 2.0 * math.pi * u * bracket

    mid = refine_trapezoid(integrand, rho, u_zero, tol)
    tail = const_area * prof.mass_outside(rho, u_zero)
    return head + mid + tail


def _finite_error_integral(rep: RepModel, g, q: groups.Ball, k: groups.Ball,
                           kind: str) -> float:
    group = rep.group
    gv = np.asarray(g, dtype=complex)
    m_table = reps._finite_maximal_table(rep, gv, q)
    k_set = set(k.points)
    complement = [x for x in group.elements() if x not in k_set]
    if kind == "I":
        outer = {group.multiply(c, z) for c in complement for z in q.points}
        total = 0.0
        for y in k.points:
            yinv = group.inverse(y)
            total += sum(m_table[group.multiply(yinv, z)] ** 2 for z in outer)
        return float(total)
    inner_set = {group.multiply(c, z) for c in k.points for z in q.points}
    total = 0.0
    for y in complement:
        yinv = group.inverse(y)
        total += sum(m_table[group.multiply(yinv, z)] ** 2 for z in inner_set)
    return float(total)


def _error_integral(rep: RepModel, g, q: groups.Ball, k: groups.Ball, kind: str,
                    tol: float, n: int) -> ErrorIntegralRecord:
    if q.center != q.metric.group.identity():
        raise ValueError("Q must be centered at the identity")
    if rep.kind == reps.FINITE_WEYL_HEISENBERG:
        value = _finite_error_integral(rep, g, q, k, kind)
        measure = float(len(k.points))
        return ErrorIntegralRecord(n, kind, value, 0.0, measure)
    if k.center != (0.0, 0.0):
        raise ValueError("K_n must be centered at the identity")
    prof = reps.radial_profile(rep, g)
    value = _lens_reduced_integral(prof, q.radius, k.radius, kind, tol)
    measure = groups.ball_measure(k.metric, k.radius, k.closed)
    return ErrorIntegralRecord(n, kind, value, tol, measure)


def error_integral_I(rep: RepModel, g, q: groups.Ball, k: groups.Ball,
                     tol: float = 1e-8, n: int = 0) -> ErrorIntegralRecord:
    """I_n: inner K_n centers against the Q-thickened complement of K_n."""
    return _error_integral(rep, g, q, k, "I", tol, n)


def error_integral_J(rep: RepModel, g, q: groups.Ball, k: groups.Ball,
                     tol: float = 1e-8, n: int = 0) -> ErrorIntegralRecord:
    """J_n: outer centers against the Q-thickened K_n."""
    return _error_integral(rep, g, q, k, "J", tol, n)


def mc_error_integral(rep: RepModel, g, q: groups.Ball, k: groups.Ball,
                      kind: str = "I", n_samples: int = 10 ** 6,
                      seed: int = 0) -> tuple:
    """Monte Carlo estimate (value, stderr) of I_n or J_n.

    Independent of the lens-area reduction: draws the difference variable from
    the radial profile density and a uniform center, then averages the region
    indicator.  Used as a cross-check oracle.

    The radius of the difference variable is drawn by inverting the
    closed-form survival function mass_outside(rho, u) / total on a linear
    grid over [0, rho + 12]; beyond it the Gaussian survival is about
    e^(-144 pi).
    """
    prof = reps.radial_profile(rep, g)
    if prof is None:
        raise ValueError("Monte Carlo error integrals need the Gaussian window")
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


# -- Theorem checks --------------------------------------------------------------------


def assemble_counting_constant(rep: RepModel, g, q: groups.Ball,
                               bounds: FrameBounds) -> dict:
    """C = (B / (A ||g||^4)) * (C(g, Q) / mu(Q)) from the proof's assembly."""
    cover = frames.lemma_cover_constant(rep, g, q)
    mu_q = (float(len(q.points)) if q.points is not None
            else math.pi * q.radius ** 2)
    norm4 = reps.norm_sq(rep, g) ** 2
    c = (bounds.upper / (bounds.lower * norm4)) * (cover.constant / mu_q)
    return {"C": c, "cover_constant": cover.constant, "n_cover": cover.n_cover,
            "mu_q": mu_q, "norm4": norm4}


def _counting_checks(rep: RepModel, g, lam: PointSet,
                     exhaustion: Sequence[groups.Ball], q: groups.Ball,
                     bounds: FrameBounds, side: str,
                     integrals: Sequence[ErrorIntegralRecord] | None,
                     center_grid_spacing: float | None, tol: float,
                     diagnostic: bool, estimate: DensityEstimate | None) -> list:
    if bounds.lower <= 0.0:
        raise ValueError("counting checks need a positive lower bound A > 0")
    if estimate is None:
        estimate = beurling_density(lam, exhaustion[0].metric, exhaustion,
                                    center_grid_spacing)
    elif [rec.radius for rec in estimate.records] != [k.radius for k in exhaustion]:
        raise ValueError("density estimate records do not match the exhaustion")
    kind = "I" if side == "inf" else "J"
    if integrals is None:
        integrals = [_error_integral(rep, g, q, k, kind, 1e-8, i)
                     for i, k in enumerate(exhaustion)]
    else:
        radii = [k.radius for k in exhaustion]
        got = {rec.n: rec for rec in integrals if rec.kind == kind}
        if sorted(got) != list(range(len(radii))):
            raise ValueError(f"missing {kind}_n records for the exhaustion")
        integrals = [got[i] for i in range(len(radii))]
    const = assemble_counting_constant(rep, g, q, bounds)
    d_pi = rep.formal_degree
    checks = []
    theorem = "T3.3" if side == "inf" else "T3.5"
    for rec, integ in zip(estimate.records, integrals):
        inputs = {"radius": rec.radius, "measure": rec.measure,
                  "inf_count": rec.inf_count, "sup_count": rec.sup_count,
                  "integral": integ.value, "integral_kind": kind,
                  "A": bounds.lower, "B": bounds.upper, "d_pi": d_pi,
                  **const}
        if side == "inf":
            lhs = float(rec.inf_count)
            rhs = d_pi * (rec.measure - const["C"] * integ.value)
            margin = lhs - rhs
        else:
            lhs = float(rec.sup_count)
            rhs = d_pi * (rec.measure + const["C"] * integ.value)
            margin = rhs - lhs
        checks.append(TheoremCheck(theorem, lhs, rhs, margin,
                                   margin >= -tol, const["C"], diagnostic, inputs))
    if side == "inf":
        last, integ = estimate.records[-1], integrals[-1]
        eps = d_pi * const["C"] * integ.value / last.measure
        lhs = last.inf_count / last.measure
        rhs = d_pi - eps
        checks.append(TheoremCheck("T3.6", lhs, rhs, lhs - rhs, lhs - rhs >= -tol,
                                   const["C"], diagnostic,
                                   {"radius": last.radius, "epsilon": eps,
                                    "d_pi": d_pi, **const}))
    return checks


def check_frame_counting(rep: RepModel, g, lam: PointSet,
                         exhaustion: Sequence[groups.Ball], q: groups.Ball,
                         bounds: FrameBounds,
                         integrals: Sequence[ErrorIntegralRecord] | None = None,
                         center_grid_spacing: float | None = None,
                         tol: float = 1e-9, diagnostic: bool = False,
                         estimate: DensityEstimate | None = None) -> list:
    """Per n: inf_x #(Lambda in xK_n) >= d_pi (mu(K_n) - C I_n), plus the
    density consequence at the largest n.

    ``estimate`` is a beurling_density result for the same exhaustion; when
    given, the counts are taken from it instead of being computed again.
    """
    if bounds.kind != "frame":
        raise ValueError("frame counting needs bounds of kind=frame (A > 0)")
    return _counting_checks(rep, g, lam, exhaustion, q, bounds, "inf",
                            integrals, center_grid_spacing, tol, diagnostic,
                            estimate)


def check_riesz_counting(rep: RepModel, g, lam: PointSet,
                         exhaustion: Sequence[groups.Ball], q: groups.Ball,
                         bounds: FrameBounds,
                         integrals: Sequence[ErrorIntegralRecord] | None = None,
                         center_grid_spacing: float | None = None,
                         tol: float = 1e-9, diagnostic: bool = False,
                         estimate: DensityEstimate | None = None) -> list:
    """Per n: sup_x #(Lambda in xK_n) <= d_pi (mu(K_n) + C J_n).

    ``estimate`` is used as in check_frame_counting.
    """
    if bounds.kind != "riesz":
        raise ValueError("riesz counting needs bounds of kind=riesz (A > 0)")
    return _counting_checks(rep, g, lam, exhaustion, q, bounds, "sup",
                            integrals, center_grid_spacing, tol, diagnostic,
                            estimate)


def check_polynomial_error_exponent(count_records: Sequence[CountingRecord],
                                    integral_records: Sequence[ErrorIntegralRecord],
                                    alpha: float, delta: float, d_pi: float = 1.0,
                                    side: str = "inf",
                                    slope_slack: float = 0.15) -> TheoremCheck:
    """Fit the decay exponent of the normalized error integrals.

    Passes if the fitted log-log slope is at most -alpha*delta/(delta+alpha)
    plus the slack; also fits the smallest constant C making
    1 -/+ C r^{-alpha delta/(delta+alpha)} a valid envelope of count/(d_pi mu).
    """
    if len(count_records) != len(integral_records):
        raise ValueError("counting and integral records must align one-to-one")
    radii = [rec.radius for rec in count_records]
    if len(radii) < 4 or max(radii) < 4.0 * min(radii):
        raise ValueError("insufficient radii: need >= 4 spanning a factor of 4")
    gamma = alpha * delta / (delta + alpha)
    logs_r = np.log(radii)
    logs_v = np.log([max(rec.normalized, 1e-300) for rec in integral_records])
    slope = float(np.polyfit(logs_r, logs_v, 1)[0])
    threshold = -gamma + slope_slack
    fitted = 0.0
    for crec, irec in zip(count_records, integral_records):
        count = crec.inf_count if side == "inf" else crec.sup_count
        ratio = count / (d_pi * crec.measure)
        dev = (1.0 - ratio) if side == "inf" else (ratio - 1.0)
        fitted = max(fitted, dev * crec.radius ** gamma)
    theorem = "T4.3i" if side == "inf" else "T4.3ii"
    return TheoremCheck(theorem, slope, threshold, threshold - slope,
                        slope <= threshold, fitted, False,
                        {"gamma": gamma, "alpha": alpha, "delta": delta,
                         "radii": list(radii), "side": side,
                         "normalized": [rec.normalized for rec in integral_records]})


# -- Spectral-gap hole experiment ---------------------------------------------------------


def hole_radius_bound(c0: float, alpha: float, delta: float, c: float,
                      a: float, b: float) -> float:
    """R = (C0^2 C B/A)^{1/(alpha+delta-1)}; any larger ball must meet Lambda."""
    if alpha + delta <= 1.0:
        raise ValueError("hypothesis violated: alpha + delta must exceed 1")
    if a <= 0.0:
        raise ValueError("lower frame bound must be positive")
    if c0 <= 0.0 or c <= 0.0 or b <= 0.0:
        raise ValueError("constants must be positive")
    return (c0 * c0 * c * b / a) ** (1.0 / (alpha + delta - 1.0))


def fit_tail_constant(r0: float, alpha: float, delta: float, c0: float,
                      norm4: float = 1.0, r_max: float = 6.0,
                      step: float = 0.25) -> tuple:
    """Smallest C'' with tail(r) <= C0^2 ||g||^4 C'' r^{1-delta-alpha} on the
    fitted grid; tail(r) is the mass of M_Q^2 outside the radius-(r - r0) ball."""
    best, arg = 0.0, r0 + step
    r = r0 + step
    while r <= r_max + 1e-9:
        tail = gauss_profile_mass_outside(r0, r - r0)
        cand = tail * r ** (alpha + delta - 1.0) / (c0 * c0 * norm4)
        if cand > best:
            best, arg = cand, r
        r += step
    return best, arg


def run_hole_falsification(rep: RepModel, g, lattice_a: float, lattice_b: float,
                           hole_radii: Sequence[float], section_radius: float,
                           r0: float = 1.25, alpha: float = 2.0,
                           delta: float = 1.0, margin: float = 3.0,
                           calibration_radius: float = 8.0,
                           tol: float = 1e-9) -> list:
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
    if alpha + delta <= 1.0:
        raise ValueError("hypothesis violated: alpha + delta must exceed 1")
    radii = sorted(float(r) for r in hole_radii)
    if radii and section_radius < 2.0 * radii[-1]:
        raise ValueError("section radius too small relative to the largest hole")
    metric = groups.euclidean_metric(dim=2)
    q = groups.ball(metric, None, r0)
    exponent = (2.0 + alpha) / 2.0
    cal = reps.decay_envelope_check(rep, g, metric, 1.0, exponent,
                                    calibration_radius)
    c0 = cal["max_ratio"]
    cover = frames.lemma_cover_constant(rep, g, q)
    mu_q = math.pi * r0 * r0
    c_prime = cover.constant / mu_q
    norm4 = reps.norm_sq(rep, g) ** 2
    c_dprime, c_dprime_arg = fit_tail_constant(r0, alpha, delta, c0, norm4)
    c_total = c_prime * c_dprime
    out = []
    for rh in radii:
        lam = (frames.lattice(lattice_a, lattice_b) if rh == 0.0
               else frames.lattice_with_holes(lattice_a, lattice_b,
                                              [(0.0, 0.0, rh)]))
        bounds = frames.frame_operator_spectrum(rep, g, lam,
                                                section_radius=section_radius,
                                                margin=margin)
        is_frame = bounds.kind == "frame"
        theorem_radius = (hole_radius_bound(c0, alpha, delta, c_total,
                                            bounds.lower, bounds.upper)
                          if is_frame else None)
        no_counterexample = (not is_frame) or rh <= theorem_radius + tol
        tail_value = tail_env = None
        tail_ok = True
        if rh > r0:
            tail_value = gauss_profile_mass_outside(r0, rh - r0)
            tail_env = c0 * c0 * norm4 * c_dprime * rh ** (1.0 - delta - alpha)
            tail_ok = tail_value <= tail_env * (1.0 + 1e-9)
        inputs = {"C0": c0, "C_prime": c_prime, "C_dprime": c_dprime,
                  "C": c_total, "n_cover": cover.n_cover, "mu_q": mu_q,
                  "r0": r0, "alpha": alpha, "delta": delta,
                  "section_radius": section_radius, "margin": margin,
                  "tail_fit_argmax": c_dprime_arg,
                  "calibration": {"exponent": exponent,
                                  "radius": calibration_radius,
                                  "argmax": list(cal["argmax"])}}
        out.append(HoleExperiment(lattice_a, lattice_b, rh, bounds,
                                  theorem_radius, no_counterexample and tail_ok,
                                  tail_value, tail_env, inputs))
    return out
