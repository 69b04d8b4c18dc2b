"""Counting functions, density proxies, error integrals (quadrature vs Monte
Carlo), the counting/density theorem checks, and the hole-radius experiment.

Reference values were frozen from independent routes: closed-form lattice
counts, the Monte Carlo sampler (which never touches the lens-area reduction),
and hand-assembled constants.
"""

import math

import numpy as np
import pytest

from coherentlab import cli, density, frames, groups, reps
from coherentlab.frames import explicit_points, full_torus, lattice


def euclid_ball(radius):
    return groups.ball(groups.euclidean_metric(dim=2), None, radius, closed=True)


def brute_disk_count(a, b, cx, cy, r):
    """Closed-disk lattice count by scanning an index box."""
    total = 0
    for i in range(int(math.floor((cx - r) / a)) - 1, int(math.ceil((cx + r) / a)) + 2):
        for j in range(int(math.floor((cy - r) / b)) - 1,
                       int(math.ceil((cy + r) / b)) + 2):
            if (i * a - cx) ** 2 + (j * b - cy) ** 2 <= r * r + 1e-12:
                total += 1
    return total


def test_count_points_box_ball_and_translation():
    lam = lattice(1.0, 1.0)
    box = groups.Box((0.0, 0.0), (2.0, 2.0))
    assert density.count_points(lam, None, box) == 25
    assert density.count_points(lam, None, euclid_ball(2.0)) == 13
    assert density.count_points(lam, (0.5, 0.5), euclid_ball(0.4)) == 0
    # lattice translation invariance and monotonicity in the radius
    for r in (1.0, 2.5, 4.0):
        assert density.count_points(lam, (3.0, -7.0), euclid_ball(r)) \
            == density.count_points(lam, None, euclid_ball(r)) \
            == brute_disk_count(1.0, 1.0, 0.0, 0.0, r)
    counts = [density.count_points(lam, (0.3, 0.1), euclid_ball(r))
              for r in (1.0, 2.0, 4.0, 8.0)]
    assert counts == sorted(counts)
    far = explicit_points([(100.0, 100.0)])
    assert density.count_points(far, None, euclid_ball(5.0)) == 0
    with pytest.raises(ValueError):
        density.count_points(lam, None, "not a region")


def test_beurling_density_half_integer_lattice_frozen_counts():
    lam = lattice(0.5, 0.5)
    em = groups.euclidean_metric(dim=2)
    exhaustion = [euclid_ball(r) for r in (6.0, 10.0, 14.0)]
    est = density.beurling_density(lam, em, exhaustion)
    recs = est.records
    assert [(r.inf_count, r.sup_count) for r in recs] \
        == [(441, 454), (1248, 1264), (2453, 2472)]
    assert [r.measure for r in recs] == pytest.approx(
        [math.pi * 36.0, math.pi * 100.0, math.pi * 196.0], rel=1e-12)
    lower, upper = est
    assert lower == pytest.approx(2453 / (math.pi * 196.0), rel=1e-12)
    assert upper == pytest.approx(2472 / (math.pi * 196.0), rel=1e-12)
    # the covolume density 1/(ab) = 4 sits between the proxies
    assert lower < 4.0 < upper
    assert est.rel_sep >= 1
    with pytest.raises(ValueError):
        density.beurling_density(lam, em, [])


def test_beurling_density_unit_lattice_brackets_one():
    lam = lattice(1.0, 1.0)
    em = groups.euclidean_metric(dim=2)
    est = density.beurling_density(lam, em, [euclid_ball(14.0)])
    assert est.lower < 1.0 < est.upper
    assert est.lower == pytest.approx(1.0, abs=0.05)
    assert est.upper == pytest.approx(1.0, abs=0.05)
    # counts agree with the brute scan at a handful of grid centers
    rec = est.records[0]
    brute = [brute_disk_count(1.0, 1.0, cx, cy, 14.0)
             for cx in (0.0, 0.5) for cy in (0.0, 0.25)]
    assert rec.inf_count <= min(brute) and rec.sup_count >= max(brute)


def test_beurling_density_finite_full_torus_is_exactly_one():
    n = 8
    lam = full_torus(n)
    group = groups.finite_cyclic_sq(n)
    wm = groups.word_metric(group)
    est = density.beurling_density(lam, wm, [groups.ball(wm, None, 2.0)])
    assert est.lower == est.upper == 1.0


def test_error_integrals_frozen_values_and_normalized_decay():
    rep = reps.gabor_gaussian()
    g = reps.gaussian_window()
    q = euclid_ball(1.0)
    i4 = density.error_integral_I(rep, g, q, euclid_ball(4.0), tol=1e-8)
    j4 = density.error_integral_J(rep, g, q, euclid_ball(4.0), tol=1e-8)
    assert i4.value == pytest.approx(165.77658798, abs=1e-5)
    assert j4.value == pytest.approx(213.19732668, abs=1e-5)
    assert i4.measure == pytest.approx(math.pi * 16.0)
    assert i4.normalized == pytest.approx(i4.value / (math.pi * 16.0))
    series = [density.error_integral_I(rep, g, q, euclid_ball(r), tol=1e-8, n=i)
              for i, r in enumerate((4.0, 8.0, 16.0))]
    normalized = [rec.normalized for rec in series]
    assert normalized == pytest.approx([3.298, 1.768, 0.913], abs=2e-3)
    assert normalized[0] > normalized[1] > normalized[2]


def test_error_integral_quadrature_matches_monte_carlo():
    q = euclid_ball(1.0)
    k = euclid_ball(4.0)
    rep, g = reps.gabor_gaussian(), reps.gaussian_window()
    for kind, quad in (("I", density.error_integral_I(rep, g, q, k).value),
                       ("J", density.error_integral_J(rep, g, q, k).value)):
        mc, se = density.mc_error_integral(rep, g, q, k, kind=kind,
                                           n_samples=10 ** 6, seed=1)
        assert se > 0.0
        assert abs(quad - mc) <= 3.0 * se


def test_error_integral_finite_full_group_vanishes():
    n = 8
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(3)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    wm = groups.word_metric(rep.group)
    q = groups.ball(wm, None, 1.0)
    whole = groups.ball(wm, None, float(n))  # covers the torus
    assert len(whole.points) == n * n
    rec = density.error_integral_I(rep, g, q, whole)
    assert rec.value == pytest.approx(0.0, abs=1e-12)
    rec_j = density.error_integral_J(rep, g, q, whole)
    assert rec_j.value >= 0.0


def test_check_frame_counting_passes_with_assembled_constant():
    rep = reps.gabor_gaussian()
    g = reps.gaussian_window()
    lam = lattice(0.5, 0.5)
    exhaustion = [euclid_ball(r) for r in (6.0, 10.0, 14.0)]
    q = euclid_ball(1.0)
    bounds = frames.frame_operator_spectrum(rep, g, lam, section_radius=12.0,
                                            margin=3.0)
    checks = density.check_frame_counting(rep, g, lam, exhaustion, q, bounds)
    assert len(checks) == 4  # one per radius plus the density consequence
    assert all(c.passed for c in checks)
    assert {c.theorem for c in checks} == {"T3.3", "T3.6"}
    assert checks[0].constant == pytest.approx(11.6215, abs=2e-4)
    # hand assembly of the constant: (B / (A ||g||^4)) * 4 n / mu(Q)
    const = density.assemble_counting_constant(rep, g, q, bounds)
    assert const["n_cover"] == 9
    assert const["C"] == pytest.approx(
        bounds.upper / bounds.lower * 36.0 / math.pi, rel=1e-12)
    t36 = checks[-1]
    assert t36.theorem == "T3.6"
    assert t36.lhs == pytest.approx(2453 / (math.pi * 196.0), rel=1e-12)


def test_check_riesz_counting_sparse_lattice():
    rep = reps.gabor_gaussian()
    g = reps.gaussian_window()
    lam = lattice(2.0, 1.0)
    exhaustion = [euclid_ball(r) for r in (6.0, 10.0, 14.0)]
    q = euclid_ball(1.0)
    bounds = frames.riesz_bounds(rep, g, lam, restriction_radius=8.0)
    checks = density.check_riesz_counting(rep, g, lam, exhaustion, q, bounds)
    assert len(checks) == 3
    assert all(c.passed for c in checks)
    assert all(c.theorem == "T3.5" for c in checks)
    for c in checks:
        assert c.lhs <= c.rhs  # sup count below the theorem envelope


def test_counting_checks_validate_bounds_kind_and_records():
    rep = reps.gabor_gaussian()
    g = reps.gaussian_window()
    lam = lattice(0.5, 0.5)
    exhaustion = [euclid_ball(6.0)]
    q = euclid_ball(1.0)
    frame_bounds = frames.frame_operator_spectrum(rep, g, lam)
    riesz = frames.riesz_bounds(rep, g, lattice(2.0, 1.0), restriction_radius=6.0)
    with pytest.raises(ValueError):
        density.check_frame_counting(rep, g, lam, exhaustion, q, riesz)
    with pytest.raises(ValueError):
        density.check_riesz_counting(rep, g, lattice(2.0, 1.0), exhaustion, q,
                                     frame_bounds)
    wrong_n = [density.error_integral_I(rep, g, q, euclid_ball(6.0), n=5)]
    with pytest.raises(ValueError):
        density.check_frame_counting(rep, g, lam, exhaustion, q, frame_bounds,
                                     integrals=wrong_n)


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


def test_counting_checks_reuse_a_precomputed_estimate():
    rep = reps.gabor_gaussian()
    g = reps.gaussian_window()
    em = groups.euclidean_metric(dim=2)
    q = euclid_ball(1.0)
    for checker, lam, bounds in (
            (density.check_frame_counting, lattice(0.5, 0.5),
             frames.frame_operator_spectrum(rep, g, lattice(0.5, 0.5))),
            (density.check_riesz_counting, lattice(2.0, 1.0),
             frames.riesz_bounds(rep, g, lattice(2.0, 1.0), restriction_radius=8.0))):
        exhaustion = [euclid_ball(r) for r in (6.0, 10.0)]
        est = density.beurling_density(lam, em, exhaustion)
        fresh = checker(rep, g, lam, exhaustion, q, bounds)
        assert checker(rep, g, lam, exhaustion, q, bounds, estimate=est) == fresh
        # an estimate for another exhaustion is refused
        with pytest.raises(ValueError, match="exhaustion"):
            checker(rep, g, lam, exhaustion[:1], q, bounds, estimate=est)


def test_check_frame_counting_finite_full_torus():
    n = 8
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(6)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lam = full_torus(n)
    wm = groups.word_metric(rep.group)
    exhaustion = [groups.ball(wm, None, 1.0), groups.ball(wm, None, 2.0)]
    q = groups.ball(wm, None, 1.0)
    bounds = frames.frame_operator_spectrum(rep, g, lam)
    checks = density.check_frame_counting(rep, g, lam, exhaustion, q, bounds)
    assert all(c.passed for c in checks)


def test_polynomial_error_exponent_fit():
    rep = reps.gabor_gaussian()
    g = reps.gaussian_window()
    lam = lattice(0.5, 0.5)
    em = groups.euclidean_metric(dim=2)
    radii = (4.0, 8.0, 16.0, 20.0)
    exhaustion = [euclid_ball(r) for r in radii]
    q = euclid_ball(1.0)
    est = density.beurling_density(lam, em, exhaustion)
    integrals = [density.error_integral_I(rep, g, q, k, n=i)
                 for i, k in enumerate(exhaustion)]
    check = density.check_polynomial_error_exponent(
        est.records, integrals, alpha=2.0, delta=1.0)
    assert check.theorem == "T4.3i"
    assert check.passed
    assert check.lhs == pytest.approx(-0.9331, abs=2e-3)  # fitted slope
    assert check.rhs == pytest.approx(-2.0 / 3.0 + 0.15, rel=1e-12)
    # redundancy-4 counts dominate the d_pi = 1 baseline, so the smallest
    # valid envelope constant is zero; normalizing by the density 4 the lower
    # deviation is positive and the fit returns a real constant
    assert check.constant == 0.0
    check4 = density.check_polynomial_error_exponent(
        est.records, integrals, alpha=2.0, delta=1.0, d_pi=4.0)
    assert check4.constant > 0.0
    with pytest.raises(ValueError):
        density.check_polynomial_error_exponent(est.records[:3], integrals[:3],
                                                alpha=2.0, delta=1.0)
    with pytest.raises(ValueError):
        density.check_polynomial_error_exponent(est.records, integrals[:3],
                                                alpha=2.0, delta=1.0)
    narrow = [euclid_ball(r) for r in (4.0, 5.0, 6.0, 7.0)]
    est_narrow = density.beurling_density(lam, em, narrow)
    ints_narrow = [density.error_integral_I(rep, g, q, k, n=i)
                   for i, k in enumerate(narrow)]
    with pytest.raises(ValueError):
        density.check_polynomial_error_exponent(est_narrow.records, ints_narrow,
                                                alpha=2.0, delta=1.0)


def test_hole_radius_bound_formula_and_validation():
    assert density.hole_radius_bound(2.0, 2.0, 1.0, 3.0, 1.0, 2.0) \
        == pytest.approx(math.sqrt(24.0))
    # exponent 1/(alpha + delta - 1)
    assert density.hole_radius_bound(1.0, 3.0, 2.0, 5.0, 1.0, 1.0) \
        == pytest.approx(5.0 ** 0.25)
    with pytest.raises(ValueError):
        density.hole_radius_bound(1.0, 0.5, 0.5, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        density.hole_radius_bound(1.0, 2.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        density.hole_radius_bound(-1.0, 2.0, 1.0, 1.0, 1.0, 1.0)


def test_fit_tail_constant_scales_inversely_with_c0_squared():
    c1, arg1 = density.fit_tail_constant(1.25, 2.0, 1.0, 1.0)
    c2, arg2 = density.fit_tail_constant(1.25, 2.0, 1.0, 2.0)
    assert c2 == pytest.approx(c1 / 4.0, rel=1e-12)
    assert arg1 == arg2
    c3, _ = density.fit_tail_constant(1.25, 2.0, 1.0, 1.0, norm4=4.0)
    assert c3 == pytest.approx(c1 / 4.0, rel=1e-12)


def test_run_hole_falsification_frozen_constants_and_monotone_bounds():
    rep = reps.gabor_gaussian()
    g = reps.gaussian_window()
    out = density.run_hole_falsification(rep, g, 0.5, 0.5, [0.0, 1.0, 2.0, 4.0],
                                         section_radius=12.0)
    assert [e.hole_radius for e in out] == [0.0, 1.0, 2.0, 4.0]
    assert all(e.passed for e in out)
    base = out[0]
    inputs = base.inputs
    assert inputs["C0"] == pytest.approx(1.52986839555, rel=1e-9)
    assert inputs["C_prime"] == pytest.approx(7.33385977767, rel=1e-9)
    assert inputs["C_dprime"] == pytest.approx(14.4794300145, rel=1e-9)
    assert inputs["C"] == pytest.approx(106.190109387, rel=1e-9)
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
    rep = reps.gabor_gaussian()
    g = reps.gaussian_window()
    with pytest.raises(ValueError):
        density.run_hole_falsification(rep, g, 1.0, 1.0, [0.0], 12.0)
    with pytest.raises(ValueError):
        density.run_hole_falsification(rep, g, 0.5, 0.5, [0.0], 12.0, r0=0.5)
    with pytest.raises(ValueError):
        density.run_hole_falsification(rep, g, 0.5, 0.5, [0.0], 12.0,
                                       alpha=0.4, delta=0.5)
    with pytest.raises(ValueError):
        density.run_hole_falsification(rep, g, 0.5, 0.5, [0.0, 8.0], 12.0)
