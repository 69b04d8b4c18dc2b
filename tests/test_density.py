"""Counting functions, density proxies, error integrals (quadrature vs Monte
Carlo), the counting/density theorem checks, and the hole-radius experiment.

Reference values were frozen from independent routes: closed-form lattice
counts, the Monte Carlo sampler of tests/reference.py (which never touches
the lens-area reduction), and hand-assembled constants.
"""

import dataclasses
import math

import numpy as np
import pytest

from coherentlab import cli, density, frames, groups, reps
from coherentlab.frames import full_torus, lattice
from coherentlab.quadrature import QuadratureError, refine_rows
from reference import lens_area_scalar, mc_error_integral


def euclid_ball(radius):
    return groups.ball(groups.euclidean_metric(dim=2), radius, closed=True)


def brute_disk_count(a, b, cx, cy, r):
    """Closed-disk lattice count by scanning an index box."""
    total = 0
    for i in range(int(math.floor((cx - r) / a)) - 1, int(math.ceil((cx + r) / a)) + 2):
        for j in range(int(math.floor((cy - r) / b)) - 1,
                       int(math.ceil((cy + r) / b)) + 2):
            if (i * a - cx) ** 2 + (j * b - cy) ** 2 <= r * r + 1e-12:
                total += 1
    return total


def counting_inputs(lam, exhaustion, q, kind):
    """The density estimate and the I_n (or J_n) records a counting checker takes."""
    integral = density.error_integral_I if kind == "I" else density.error_integral_J
    return {"estimate": density.beurling_density(lam, exhaustion),
            "integrals": integral(q, exhaustion)}


def test_count_points_box_ball_and_translation():
    lam = lattice(1.0, 1.0)
    assert lam.lattice_count_near(0.0, 0.0, 2.0) == 13
    assert lam.lattice_count_near(0.5, 0.5, 0.4) == 0
    # lattice translation invariance and monotonicity in the radius
    for r in (1.0, 2.5, 4.0):
        assert lam.lattice_count_near(3.0, -7.0, r) \
            == lam.lattice_count_near(0.0, 0.0, r) \
            == brute_disk_count(1.0, 1.0, 0.0, 0.0, r)
    counts = [lam.lattice_count_near(0.3, 0.1, r) for r in (1.0, 2.0, 4.0, 8.0)]
    assert counts == sorted(counts)
    # closed-form counting takes a plain lattice only
    with pytest.raises(ValueError, match="plain lattice"):
        lattice(1.0, 1.0, hole_radius=1.0).lattice_count_near(0.0, 0.0, 2.0)


def test_beurling_density_half_integer_lattice_frozen_counts():
    lam = lattice(0.5, 0.5)
    exhaustion = [euclid_ball(r) for r in (6.0, 10.0, 14.0)]
    est = density.beurling_density(lam, exhaustion)
    recs = est.records
    assert [(r.inf_count, r.sup_count) for r in recs] \
        == [(441, 454), (1248, 1264), (2453, 2472)]
    assert [r.measure for r in recs] == pytest.approx(
        [math.pi * 36.0, math.pi * 100.0, math.pi * 196.0], rel=1e-12)
    lower, upper = est.lower, est.upper
    assert lower == pytest.approx(2453 / (math.pi * 196.0), rel=1e-12)
    assert upper == pytest.approx(2472 / (math.pi * 196.0), rel=1e-12)
    # the covolume density 1/(ab) = 4 sits between the proxies
    assert lower < 4.0 < upper
    assert est.rel_sep >= 1
    with pytest.raises(ValueError):
        density.beurling_density(lam, [])


def test_beurling_density_unit_lattice_brackets_one():
    lam = lattice(1.0, 1.0)
    est = density.beurling_density(lam, [euclid_ball(14.0)])
    assert est.lower < 1.0 < est.upper
    assert est.lower == pytest.approx(1.0, abs=0.05)
    assert est.upper == pytest.approx(1.0, abs=0.05)
    # counts agree with the brute scan at a handful of grid centers
    rec = est.records[0]
    brute = [brute_disk_count(1.0, 1.0, cx, cy, 14.0)
             for cx in (0.0, 0.5) for cy in (0.0, 0.25)]
    assert rec.inf_count <= min(brute) and rec.sup_count >= max(brute)


def test_beurling_density_counts_match_a_per_centre_loop():
    # one batched count over the closed balls on a plain lattice, against an
    # enumeration of each ball at every centre
    a, b = 0.4807, 0.25 / 0.4807
    exhaustion = [euclid_ball(3.0), euclid_ball(6.2)]
    lam = lattice(a, b)
    for spacing in (None, 0.07):
        est = density.beurling_density(lam, exhaustion, spacing)
        step = spacing or min(a, b) / 8.0
        centres = [(float(x), float(y)) for x in np.arange(0.0, a - 1e-12, step)
                   for y in np.arange(0.0, b - 1e-12, step)]
        for rec, k in zip(est.records, exhaustion):
            counts = [len(lam.lattice_points_near(cx, cy, k.radius)) for cx, cy in centres]
            assert (rec.inf_count, rec.sup_count) == (min(counts), max(counts))
            assert type(rec.inf_count) is int and type(rec.sup_count) is int
            assert rec.centers_sampled == len(centres)


def test_density_rejects_the_inputs_it_does_not_count():
    # density counts a plain lattice in closed discs; a holed lattice and an
    # open K_n raise ValueError naming what they are.  A torus subset is a
    # mask, not a PointSet, and has no lattice to count
    em = groups.euclidean_metric(dim=2)
    exhaustion = [euclid_ball(3.0)]
    with pytest.raises(ValueError, match="hole_radius = 1"):
        density.beurling_density(lattice(0.5, 0.5, hole_radius=1.0), exhaustion)
    with pytest.raises(AttributeError):
        density.beurling_density(full_torus(4), exhaustion)
    with pytest.raises(ValueError, match="open"):
        density.beurling_density(lattice(0.5, 0.5),
                                 [euclid_ball(2.0), groups.ball(em, 3.0, closed=False)])


def test_error_integrals_frozen_values_and_normalized_decay():
    q = euclid_ball(1.0)
    [i4] = density.error_integral_I(q, [euclid_ball(4.0)], tol=1e-8)
    [j4] = density.error_integral_J(q, [euclid_ball(4.0)], tol=1e-8)
    assert i4.value == pytest.approx(165.77658798, abs=1e-5)
    assert j4.value == pytest.approx(213.19732668, abs=1e-5)
    assert i4.measure == pytest.approx(math.pi * 16.0)
    assert i4.normalized == pytest.approx(i4.value / (math.pi * 16.0))
    series = density.error_integral_I(q, [euclid_ball(r) for r in (4.0, 8.0, 16.0)],
                                      tol=1e-8)
    normalized = [rec.normalized for rec in series]
    assert normalized == pytest.approx([3.298, 1.768, 0.913], abs=2e-3)
    assert normalized[0] > normalized[1] > normalized[2]


def test_error_integral_quadrature_matches_monte_carlo():
    q = euclid_ball(1.0)
    k = euclid_ball(4.0)
    for kind, quad in (("I", density.error_integral_I(q, [k])[0].value),
                       ("J", density.error_integral_J(q, [k])[0].value)):
        mc, se = mc_error_integral(q, k, kind=kind, n_samples=10 ** 6, seed=1)
        assert se > 0.0
        assert abs(quad - mc) <= 3.0 * se


def test_check_frame_counting_passes_with_assembled_constant():
    lam = lattice(0.5, 0.5)
    exhaustion = [euclid_ball(r) for r in (6.0, 10.0, 14.0)]
    q = euclid_ball(1.0)
    bounds = frames.frame_operator_spectrum(lam, section_radius=12.0,
                                            margin=3.0)
    checks = density.check_counting(q, bounds, **counting_inputs(lam, exhaustion, q, "I"))
    assert len(checks) == 4  # one per radius plus the density consequence
    assert all(c.passed for c in checks)
    assert {c.theorem for c in checks} == {"T3.3", "T3.6"}
    assert checks[0].constant == pytest.approx(11.6215, abs=2e-4)
    # hand assembly of the constant: (B / (A ||g||^4)) * 4 n / mu(Q)
    const = density.assemble_counting_constant(q, bounds)
    assert const["n_cover"] == 9
    assert const["C"] == pytest.approx(
        bounds.upper / bounds.lower * 36.0 / math.pi, rel=1e-12)
    t36 = checks[-1]
    assert t36.theorem == "T3.6"
    assert t36.lhs == pytest.approx(2453 / (math.pi * 196.0), rel=1e-12)


def test_check_riesz_counting_sparse_lattice():
    lam = lattice(2.0, 1.0)
    exhaustion = [euclid_ball(r) for r in (6.0, 10.0, 14.0)]
    q = euclid_ball(1.0)
    bounds = frames.riesz_bounds(lam, restriction_radius=8.0)
    checks = density.check_counting(q, bounds, **counting_inputs(lam, exhaustion, q, "J"))
    assert len(checks) == 3
    assert all(c.passed for c in checks)
    assert all(c.theorem == "T3.5" for c in checks)
    for c in checks:
        assert c.lhs <= c.rhs  # sup count below the theorem envelope


def test_counting_checks_validate_bounds_kind_and_records():
    # the side comes from the bounds, so bessel bounds have none; frame
    # bounds read I_n records and riesz bounds J_n ones, n = 0, 1, ...
    lam = lattice(0.5, 0.5)
    exhaustion = [euclid_ball(6.0)]
    q = euclid_ball(1.0)
    frame_bounds = frames.frame_operator_spectrum(lam)
    riesz = frames.riesz_bounds(lattice(2.0, 1.0), restriction_radius=6.0)
    bessel = frames.frame_operator_spectrum(lattice(2.0, 1.0))
    assert bessel.kind == "bessel"
    inputs = counting_inputs(lam, exhaustion, q, "I")
    with pytest.raises(ValueError, match="bessel"):
        density.check_counting(q, bessel, **inputs)
    with pytest.raises(ValueError, match="J_n"):
        density.check_counting(q, riesz, **inputs)
    wrong_n = [dataclasses.replace(inputs["integrals"][0], n=5)]
    with pytest.raises(ValueError, match="I_n"):
        density.check_counting(q, frame_bounds,
                               integrals=wrong_n, estimate=inputs["estimate"])
    # J_n records do not stand in for I_n ones
    j_recs = counting_inputs(lam, exhaustion, q, "J")["integrals"]
    with pytest.raises(ValueError, match="I_n"):
        density.check_counting(q, frame_bounds,
                               integrals=j_recs, estimate=inputs["estimate"])


@pytest.mark.parametrize("side, a, b", [("frame", 0.5, 0.5), ("riesz", 2.0, 1.0)])
def test_run_density_computes_the_density_once(monkeypatch, tmp_path, side, a, b):
    calls = []
    original = density.beurling_density

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(density, "beurling_density", counted)
    ini = tmp_path / "density.ini"
    ini.write_text(f"[density]\nside = {side}\nlattice_a = {a}\nlattice_b = {b}\n"
                   "radii = 6,10\n")
    report = cli.run_density(cli.load_config(str(ini), "density"))
    assert len(calls) == 1
    assert report.overall_pass
    assert {"density", "checks"} <= set(report.timings)


def test_counting_checks_reuse_a_precomputed_estimate(monkeypatch):
    q = euclid_ball(1.0)

    def refuse(*args, **kwargs):
        raise AssertionError("a checker recomputed its inputs")

    for lam, bounds, kind in (
            (lattice(0.5, 0.5), frames.frame_operator_spectrum(lattice(0.5, 0.5)), "I"),
            (lattice(2.0, 1.0),
             frames.riesz_bounds(lattice(2.0, 1.0), restriction_radius=8.0), "J")):
        exhaustion = [euclid_ball(r) for r in (6.0, 10.0)]
        inputs = counting_inputs(lam, exhaustion, q, kind)
        with monkeypatch.context() as m:
            m.setattr(density, "beurling_density", refuse)
            m.setattr(density, "_error_integrals", refuse)
            checks = density.check_counting(q, bounds, **inputs)
        # the per-n checks read the estimate's counts and the given integrals
        for chk, rec, integ in zip(checks, inputs["estimate"].records, inputs["integrals"]):
            count = rec.inf_count if kind == "I" else rec.sup_count
            assert chk.lhs == count and chk.inputs["integral"] == integ.value
        # integrals of another exhaustion are refused: fewer K_n, or other radii
        other = counting_inputs(lam, [euclid_ball(r) for r in (6.0, 12.0)], q, kind)
        for integrals in (inputs["integrals"][:1], other["integrals"]):
            with pytest.raises(ValueError, match="exhaustion"):
                density.check_counting(q, bounds, integrals=integrals,
                                       estimate=inputs["estimate"])


class DensityFourProfile(reps.RadialProfile):
    """The Gaussian profile normalized to the formal degree 4 of a
    redundancy-4 lattice."""

    formal_degree = 4.0


def test_polynomial_error_exponent_fit(monkeypatch):
    lam = lattice(0.5, 0.5)
    radii = (4.0, 8.0, 16.0, 20.0)
    exhaustion = [euclid_ball(r) for r in radii]
    q = euclid_ball(1.0)
    est = density.beurling_density(lam, exhaustion)
    integrals = density.error_integral_I(q, exhaustion)
    check = density.check_polynomial_error_exponent(est.records, integrals, alpha=2.0)
    assert check.theorem == "T4.3i" and check.inputs["side"] == "inf"
    assert check.inputs["delta"] == density.DELTA == 1.0
    assert check.passed
    assert check.lhs == pytest.approx(-0.9331, abs=2e-3)  # fitted slope
    assert check.rhs == pytest.approx(-2.0 / 3.0 + 0.15, rel=1e-12)
    # redundancy-4 counts dominate the d_pi = 1 baseline, so the smallest
    # valid envelope constant is zero; normalizing by the density 4 the lower
    # deviation is positive and the fit returns a real constant
    assert check.constant == 0.0
    monkeypatch.setattr(density, "GAUSSIAN_PROFILE", DensityFourProfile())
    check4 = density.check_polynomial_error_exponent(est.records, integrals, alpha=2.0)
    monkeypatch.undo()
    assert check4.constant > 0.0
    with pytest.raises(ValueError):
        density.check_polynomial_error_exponent(est.records[:3], integrals[:3],
                                                alpha=2.0)
    with pytest.raises(ValueError):
        density.check_polynomial_error_exponent(est.records, integrals[:3],
                                                alpha=2.0)
    narrow = [euclid_ball(r) for r in (4.0, 5.0, 6.0, 7.0)]
    est_narrow = density.beurling_density(lam, narrow)
    ints_narrow = density.error_integral_I(q, narrow)
    with pytest.raises(ValueError):
        density.check_polynomial_error_exponent(est_narrow.records, ints_narrow,
                                                alpha=2.0)


def test_run_density_fits_the_riesz_side_exponent(tmp_path):
    # the fit reads its side from the J_n records: sup counts, T4.3ii
    ini = tmp_path / "riesz_fit.ini"
    ini.write_text("[density]\nside = riesz\nlattice_a = 2\nlattice_b = 1\n"
                   "radii = 6,10,14,28\nrestriction_radius = 8\nfit_exponent = true\n")
    report = cli.run_density(cli.load_config(str(ini), "density"))
    assert all(rec["passed"] for rec in report.records if "passed" in rec)
    [fit] = [rec for rec in report.records if rec["name"].startswith("T4.3")]
    assert fit["name"] == "T4.3ii" and fit["inputs"]["side"] == "sup"


def test_hole_radius_bound_formula_and_validation():
    assert density.hole_radius_bound(2.0, 2.0, 3.0, 1.0, 2.0) \
        == pytest.approx(math.sqrt(24.0))
    # exponent 1/(alpha + delta - 1) with delta = 1
    assert density.hole_radius_bound(1.0, 4.0, 5.0, 1.0, 1.0) \
        == pytest.approx(5.0 ** 0.25)
    # no small alpha > 0 rounds the exponent's denominator to 0
    with pytest.raises(OverflowError):
        density.hole_radius_bound(1.0, 1e-300, 5.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        density.hole_radius_bound(1.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        density.hole_radius_bound(1.0, 2.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        density.hole_radius_bound(-1.0, 2.0, 1.0, 1.0, 1.0)


def test_fit_tail_constant_scales_inversely_with_c0_squared():
    c1, arg1 = density.fit_tail_constant(1.25, 2.0, 1.0)
    c2, arg2 = density.fit_tail_constant(1.25, 2.0, 2.0)
    assert c2 == pytest.approx(c1 / 4.0, rel=1e-12)
    assert arg1 == arg2
    c3, _ = density.fit_tail_constant(1.25, 2.0, 1.0, norm4=4.0)
    assert c3 == pytest.approx(c1 / 4.0, rel=1e-12)


def test_run_hole_falsification_frozen_constants_and_monotone_bounds():
    out = density.run_hole_falsification(0.5, 0.5, [0.0, 1.0, 2.0, 4.0],
                                         section_radius=12.0)
    assert [e.hole_radius for e in out] == [0.0, 1.0, 2.0, 4.0]
    assert all(e.passed for e in out)
    base = out[0]
    inputs = base.inputs
    # C0 = sup e^(-pi r^2 / 2) (1 + r)^2 at r* = (sqrt(1 + 8 / pi) - 1) / 2
    assert inputs["C0"] == pytest.approx(1.52987394705, rel=1e-9)
    assert inputs["calibration"] == {"exponent": 2.0, "argmax": [
        pytest.approx((math.sqrt(1.0 + 8.0 / math.pi) - 1.0) / 2.0, rel=1e-15), 0.0]}
    assert inputs["delta"] == 1.0
    assert inputs["C_prime"] == pytest.approx(7.33385977767, rel=1e-9)
    assert inputs["C_dprime"] == pytest.approx(14.4793249308, rel=1e-9)
    assert inputs["C"] == pytest.approx(106.189338718, rel=1e-9)
    assert inputs["n_cover"] == 9
    assert inputs["mu_q"] == pytest.approx(math.pi * 1.25 ** 2, rel=1e-12)
    assert inputs["tail_fit_argmax"] == pytest.approx(2.25)
    assert base.theorem_radius == pytest.approx(15.8763360313, rel=1e-9)
    # lower section bounds can only decrease as the hole grows
    lowers = [e.bounds.lower for e in out]
    assert all(a >= b - 1e-12 for a, b in zip(lowers, lowers[1:]))
    assert out[1].bounds.lower == pytest.approx(0.333984094317, rel=1e-9)
    assert out[1].bounds.upper == pytest.approx(4.02722063128, rel=1e-9)
    # tail certificates only apply beyond the Q radius
    assert out[0].tail_value is None and out[1].tail_value is None
    r2, r4 = out[2], out[3]
    assert r2.tail_value == pytest.approx(8.0686, abs=2e-4)
    assert r2.tail_envelope == pytest.approx(8.4723, abs=2e-4)
    assert r4.tail_value == pytest.approx(0.0015, abs=1e-4)
    assert r4.tail_envelope == pytest.approx(2.118, abs=2e-3)
    assert r2.tail_value <= r2.tail_envelope
    assert r4.tail_value <= r4.tail_envelope
    # serialized form carries the bounds dictionary
    js = r2.to_json()
    assert js["bounds"]["A"] == pytest.approx(r2.bounds.lower)
    assert js["hole_radius"] == 2.0


def test_run_hole_falsification_validation():
    with pytest.raises(ValueError):
        density.run_hole_falsification(1.0, 1.0, [0.0], 12.0)
    with pytest.raises(ValueError):
        density.run_hole_falsification(0.5, 0.5, [0.0], 12.0, r0=0.5)
    with pytest.raises(ValueError):
        density.run_hole_falsification(0.5, 0.5, [0.0], 12.0, alpha=0.0)
    with pytest.raises(ValueError):
        density.run_hole_falsification(0.5, 0.5, [0.0, 8.0], 12.0)


def _scalar_lens_area(r1, r2, d):
    """Two-disk intersection area, one distance at a time, with the angle
    function lens_area uses."""
    return lens_area_scalar(r1, r2, d, acos=np.arccos)


def refine_trapezoid_oracle(fn, a, b, tol=1e-8, max_doublings=22, min_doublings=4):
    """The one-integral trapezoid halving loop as it stood before the error
    integrals of an exhaustion were refined together, kept verbatim as an
    oracle that does not depend on quadrature.refine_rows."""
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


def _full_node_integral(prof, rho, r, kind, tol, lens=_scalar_lens_area):
    """The lens-reduced error integral with a lens area at every node, also
    where the Gaussian weight is exactly 0; lens gives the areas, one
    distance at a time."""
    if kind == "I" and r - rho <= 0.0:
        return math.pi * r * r * prof.mass_outside(rho, 0.0)
    r_a, r_b = (r, r - rho) if kind == "I" else (r + rho, r)
    const_area = math.pi * r_a * r_a
    u_zero = r_a + r_b
    flat = const_area - math.pi * r_b * r_b
    head = flat * (prof.mass_outside(rho, 0.0) - prof.mass_outside(rho, rho))

    def integrand(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        bracket = const_area - np.array([lens(r_a, r_b, x) for x in u.tolist()])
        return prof.maximal_sq(u, rho) * 2.0 * math.pi * u * bracket

    mid = refine_trapezoid_oracle(integrand, rho, u_zero, tol)
    return head + mid + const_area * prof.mass_outside(rho, u_zero)


@pytest.mark.parametrize("kind, rho, r", [
    ("I", 1.0, 6.0), ("J", 1.0, 6.0),
    ("I", 1.0, 28.0), ("J", 1.25, 28.3),  # most nodes have weight exactly 0
    ("I", 2.0, 2.0), ("I", 2.0, 1.5),     # r - rho <= 0: closed form, no nodes
])
def test_error_integrals_take_lens_areas_at_live_nodes_only(monkeypatch, kind, rho, r):
    prof = reps.GAUSSIAN_PROFILE
    nodes, lens_nodes = [], []
    lens_area, refine = density.lens_area, density.refine_rows

    def lens_spy(r1, r2, d):
        lens_nodes.append(np.array(d))
        return lens_area(r1, r2, d)

    def refine_spy(fn, a, b, tol):
        def counted(u, rows):
            nodes.append(np.array(u))
            return fn(u, rows)
        return refine(counted, a, b, tol)

    monkeypatch.setattr(density, "lens_area", lens_spy)
    monkeypatch.setattr(density, "refine_rows", refine_spy)
    integral = density.error_integral_I if kind == "I" else density.error_integral_J
    got = integral(euclid_ball(rho), [euclid_ball(r)], tol=1e-8)[0].value
    monkeypatch.undo()
    assert got.hex() == _full_node_integral(prof, rho, r, kind, 1e-8).hex()
    if kind == "I" and r <= rho:
        assert not nodes and not lens_nodes
        return
    assert len(lens_nodes) == len(nodes)
    for d in lens_nodes:
        assert np.all(prof.maximal_sq(d, rho) != 0.0)
    weights = prof.maximal_sq(np.concatenate([u.ravel() for u in nodes]), rho)
    assert sum(d.size for d in lens_nodes) == np.count_nonzero(weights)
    if r > 20.0:
        assert np.mean(weights == 0.0) > 0.5


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_batched_error_integrals_equal_one_refinement_per_radius(seed, tol):
    # every I_n and J_n of an exhaustion, refined together, equals to the bit
    # the value of its radius refined alone by the pre-batch loop; the radii
    # are unsorted, repeat, and (for I) include r <= rho, which has a closed
    # form and no nodes
    prof = reps.GAUSSIAN_PROFILE
    rng = np.random.default_rng(seed)
    rho = float(rng.uniform(0.5, 2.0))
    radii = [float(r) for r in rng.uniform(rho + 0.1, 30.0, 5)]
    radii += [radii[1], rho, float(rng.uniform(0.2, rho)), float(rng.uniform(rho, 3.0))]
    radii = [radii[i] for i in rng.permutation(len(radii))]
    ks = [euclid_ball(r) for r in radii]
    for kind, integral in (("I", density.error_integral_I), ("J", density.error_integral_J)):
        recs = integral(euclid_ball(rho), ks, tol=tol)
        assert [(rec.n, rec.kind) for rec in recs] == [(n, kind) for n in range(len(ks))]
        assert [rec.measure for rec in recs] == [k.measure for k in ks]
        assert [rec.value.hex() for rec in recs] \
            == [_full_node_integral(prof, rho, r, kind, tol).hex() for r in radii]
    assert density.error_integral_I(euclid_ball(rho), []) == []


@pytest.mark.parametrize("kind", ["I", "J"])
def test_error_integrals_stay_within_1e13_of_the_libm_angle_oracle(kind):
    # lens_area's angles come from np.arccos, which may differ from libm's
    # acos by 1 ulp; at the density benchmark's radii the error integrals
    # stay within 1e-13 relative of the full-node integral whose lens areas
    # take their angles from math.acos
    prof = reps.GAUSSIAN_PROFILE
    radii = [6.0, 10.0, 14.0, 20.0, 28.0]
    integral = density.error_integral_I if kind == "I" else density.error_integral_J
    got = [rec.value for rec in integral(euclid_ball(1.0), [euclid_ball(r) for r in radii])]
    want = [_full_node_integral(prof, 1.0, r, kind, 1e-8, lens=lens_area_scalar)
            for r in radii]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * abs(w), (kind, g, w)


def test_refine_rows_equal_one_refinement_per_row():
    # rows of different widths and integrands leave the loop at different
    # levels; each keeps the value its own refinement gives, b <= a gives 0,
    # and so does each row's one-row call
    scales = np.array([0.3, 1.0, 4.0, 9.0, 1.0, 2.5])
    a = np.array([0.0, -1.0, 0.5, 0.0, 2.0, 1.0])
    b = np.array([1.0, 3.0, 6.0, 0.7, 2.0, 0.5])

    def rowwise(u, rows):
        return np.exp(-scales[rows][:, None] * u * u) * np.cos(scales[rows][:, None] * u)

    def one(i):
        return lambda u: np.exp(-scales[i] * u * u) * np.cos(scales[i] * u)

    for tol in (1e-6, 1e-9, 1e-12):
        got = refine_rows(rowwise, a, b, tol)
        want = [refine_trapezoid_oracle(one(i), a[i], b[i], tol) for i in range(a.size)]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
        assert [float(refine_rows(lambda u, rows: one(i)(u[0]), [a[i]], [b[i]], tol)[0]).hex()
                for i in range(a.size)] == [x.hex() for x in want]


def test_refine_rows_raise_when_a_row_does_not_converge():
    # row 1 oscillates too fast for 8 doublings; the smooth rows converge
    # within them, and a row with b <= a never reaches the integrand
    def rowwise(u, rows):
        freq = np.where(rows == 1, 3000.0, 1.0)[:, None]
        return np.cos(freq * math.pi * u)

    smooth = refine_rows(rowwise, [0.0, 0.0, 0.0], [1.0, 0.0, 2.0], 1e-8, max_doublings=8)
    assert smooth.tolist() == pytest.approx([0.0, 0.0, 0.0], abs=1e-8)
    with pytest.raises(QuadratureError, match="no convergence"):
        refine_rows(rowwise, [0.0, 0.0, 0.0], [1.0, 1.0, 2.0], 1e-8, max_doublings=8)
    assert refine_rows(None, [1.0, 2.0], [1.0, 0.0]).tolist() == [0.0, 0.0]


def test_beurling_density_counts_every_radius_in_one_call(monkeypatch):
    # a plain lattice with closed balls: one count over the stacked (radius,
    # centre) rows, equal to one count per radius, also in blocks of a few
    # centres
    a, b = 0.4807, 0.25 / 0.4807
    lam = lattice(a, b)
    exhaustion = [euclid_ball(r) for r in (2.0, 3.7, 6.2, 9.0)]
    step = min(a, b) / 8.0
    xs, ys = np.meshgrid(np.arange(0.0, a - 1e-12, step),
                         np.arange(0.0, b - 1e-12, step), indexing="ij")
    want = [lam.lattice_count_near(xs.ravel(), ys.ravel(), k.radius) for k in exhaustion]
    calls = []
    count = frames.PointSet.lattice_count_near

    def spy(self, cx, cy, radius):
        calls.append(np.size(cx))
        return count(self, cx, cy, radius)

    for cells in (frames._BLOCK_CELLS, 64):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(frames, "_BLOCK_CELLS", cells)
            m.setattr(frames.PointSet, "lattice_count_near", spy)
            est = density.beurling_density(lam, exhaustion)
        # the relative separation search counts once; the densities once
        assert calls[-1] == len(exhaustion) * xs.size and len(calls) == 2
        for rec, counts in zip(est.records, want):
            assert (rec.inf_count, rec.sup_count) == (int(counts.min()), int(counts.max()))
