"""Acceptance gate: nine end-to-end criteria with stated tolerances.

Each test prints exactly one verdict line (visible under ``pytest -s``):

    ACCEPTANCE <k> (<label>): PASS|FAIL

and then asserts, so a FAIL line always comes with a failing test.
"""

import math
import os
import time

import numpy as np

from coherentlab import cli, density, frames, groups, reps
from reference import dimension_lemma_check, mc_error_integral

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def verdict(num, label, ok):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


def inner(a, b):
    return complex(np.sum(np.asarray(a) * np.conj(np.asarray(b))))


def random_vec(rng, n, normalize=True):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v) if normalize else v


def test_acceptance_1_orthogonality_relations():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16):
        rep = reps.finite_weyl_heisenberg(n)
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            f1, f2, g1, g2 = (random_vec(rng, n) for _ in range(4))
            t1 = reps.coefficient_table(rep, f1, g1)
            t2 = reps.coefficient_table(rep, f2, g2)
            lhs = complex(np.sum(t1 * np.conj(t2)))
            rhs = n * inner(f1, f2) * np.conj(inner(g1, g2))
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    assert verdict(1, "orthogonality relations", ok), \
        f"worst deviation {worst:.3e}, elapsed {elapsed:.2f}s"


def test_acceptance_2_dimension_count():
    t0 = time.perf_counter()
    n = 8
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(2)
    g = random_vec(rng, n)
    qmat, _ = np.linalg.qr(rng.standard_normal((n, n))
                           + 1j * rng.standard_normal((n, n)))
    worst = 0.0
    for dim in (0, 1, 3, 8):
        out = dimension_lemma_check(rep, g, [qmat[:, j] for j in range(dim)])
        worst = max(worst, out["deviation"])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    assert verdict(2, "dimension count", ok), \
        f"worst deviation {worst:.3e}, elapsed {elapsed:.2f}s"


def test_acceptance_3_bessel_separation_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    instances = [
        (4, [(k, l) for k in range(4) for l in range(4)]),
        (6, [(k, l) for k in range(0, 6, 2) for l in range(6)]),
        (8, [(k, l) for k in range(0, 8, 2) for l in range(0, 8, 2)]),
        (8, [(k, 0) for k in range(8)]),
        (12, [tuple(map(int, p)) for p in
              {tuple(rng.integers(0, 12, size=2)) for _ in range(60)}]),
    ]
    ok = True
    for n, pts in instances:
        rep = reps.finite_weyl_heisenberg(n)
        g = random_vec(rng, n, normalize=False)
        lam = frames.finite_subset(n, pts)
        out = bessel = frames.finite_bessel_separation_bound(rep, g, lam, 1.0)
        doubled = frames.finite_bessel_separation_bound(rep, 2.0 * g, lam, 1.0)
        ok &= bessel["passed"]
        ok &= bessel["rel_sep"] <= bessel["bound"] + 1e-9
        ok &= doubled["n_cover"] == out["n_cover"]
        ok &= doubled["passed"] == out["passed"]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert verdict(3, "Bessel separation bound", ok), f"elapsed {elapsed:.2f}s"


def test_acceptance_4_geometry_diagnostics():
    t0 = time.perf_counter()
    z2 = groups.word_metric(groups.integer_lattice(2))
    h3 = groups.word_metric(groups.discrete_heisenberg())
    em = groups.euclidean_metric(dim=2)
    fit_z2 = groups.fit_growth_exponent(z2, [4, 5, 6, 7, 8, 9, 10, 11, 12])
    fit_h3 = groups.fit_growth_exponent(h3, [5, 6, 7, 8, 9, 10, 11, 12])
    annular = groups.estimate_annular_decay(em, [2, 4, 8, 16], [0.25, 0.5])
    violations = groups.annular_violations(annular, em, [2, 4, 8, 16],
                                           [0.25, 0.5])
    k = groups.ball(z2, 1.0)
    f10 = groups.folner_ratio(z2, groups.ball(z2, 10.0), k)
    f20 = groups.folner_ratio(z2, groups.ball(z2, 20.0), k)
    elapsed = time.perf_counter() - t0
    ok = (1.8 <= fit_z2.exponent_hat <= 2.2
          and 3.5 <= fit_h3.exponent_hat <= 4.5
          and annular.delta_hat == 1.0
          and annular.c_hat <= 2.0
          and violations == 0
          and f20 < f10
          and f20 < 0.2
          and elapsed < 60.0)
    assert verdict(4, "geometry diagnostics", ok), (
        f"z2 fit {fit_z2.exponent_hat:.3f}, h3 fit {fit_h3.exponent_hat:.3f}, "
        f"delta {annular.delta_hat}, c {annular.c_hat}, violations {violations}, "
        f"folner {f10:.4f}->{f20:.4f}, elapsed {elapsed:.1f}s")


def test_acceptance_5_frame_counting_bound():
    t0 = time.perf_counter()
    lam = frames.lattice(0.5, 0.5)
    em = groups.euclidean_metric(dim=2)
    radii = (6.0, 10.0, 14.0)
    exhaustion = [groups.ball(em, r, closed=True) for r in radii]
    q = groups.ball(em, 1.0)
    bounds = frames.frame_operator_spectrum(lam, section_radius=12.0, margin=3.0)
    integrals = density.error_integral_I(q, exhaustion, tol=1e-8)
    est = density.beurling_density(lam, exhaustion)
    checks = density.check_counting(q, bounds, integrals=integrals, estimate=est)
    inf_ratio = est.records[-1].inf_count / est.records[-1].measure
    normalized = [rec.normalized for rec in integrals]
    slope = float(np.polyfit(np.log(radii), np.log(normalized), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = (all(c.passed for c in checks)
          and 3.5 <= inf_ratio <= 4.5
          and normalized[0] > normalized[1] > normalized[2]
          and slope <= -2.0 / 3.0 + 0.15
          and elapsed < 600.0)
    assert verdict(5, "frame counting bound", ok), (
        f"checks {[c.passed for c in checks]}, inf ratio {inf_ratio:.4f}, "
        f"normalized {normalized}, slope {slope:.4f}, elapsed {elapsed:.1f}s")


def test_acceptance_6_riesz_counting_bound():
    t0 = time.perf_counter()
    lam = frames.lattice(2.0, 1.0)
    em = groups.euclidean_metric(dim=2)
    radii = (6.0, 10.0, 14.0)
    exhaustion = [groups.ball(em, r, closed=True) for r in radii]
    q = groups.ball(em, 1.0)
    bounds = frames.riesz_bounds(lam, restriction_radius=8.0)
    integrals = density.error_integral_J(q, exhaustion, tol=1e-8)
    est = density.beurling_density(lam, exhaustion)
    checks = density.check_counting(q, bounds, integrals=integrals, estimate=est)
    sup_ratio = est.records[-1].sup_count / est.records[-1].measure
    normalized = [rec.normalized for rec in integrals]
    elapsed = time.perf_counter() - t0
    ok = (all(c.passed for c in checks)
          and 0.4 <= sup_ratio <= 0.6
          and normalized[0] > normalized[1] > normalized[2]
          and elapsed < 600.0)
    assert verdict(6, "Riesz counting bound", ok), (
        f"checks {[c.passed for c in checks]}, sup ratio {sup_ratio:.4f}, "
        f"normalized {normalized}, elapsed {elapsed:.1f}s")


def test_acceptance_7_hole_falsification():
    t0 = time.perf_counter()
    out = density.run_hole_falsification(0.5, 0.5, [0.0, 1.0, 2.0, 4.0],
                                         section_radius=12.0)
    lowers = [e.bounds.lower for e in out]
    monotone = all(a >= b - 1e-12 for a, b in zip(lowers, lowers[1:]))
    no_counterexample = all(
        e.bounds.lower <= 0.0 or (e.theorem_radius is not None
                                  and e.hole_radius <= e.theorem_radius + 1e-9)
        for e in out)
    tails_ok = all(e.tail_value <= e.tail_envelope * (1.0 + 1e-9)
                   for e in out if e.hole_radius in (2.0, 4.0))
    elapsed = time.perf_counter() - t0
    ok = (monotone and no_counterexample and tails_ok
          and all(e.passed for e in out) and elapsed < 600.0)
    assert verdict(7, "hole-radius falsification", ok), (
        f"lower bounds {lowers}, counterexample-free {no_counterexample}, "
        f"tails ok {tails_ok}, elapsed {elapsed:.1f}s")


def test_acceptance_8_oracle_equivalence():
    t0 = time.perf_counter()
    q = groups.ball(groups.euclidean_metric(dim=2), 1.0)
    k = groups.ball(groups.euclidean_metric(dim=2), 4.0, closed=True)
    mc_ok = True
    for kind, quad in (("I", density.error_integral_I(q, [k])[0].value),
                       ("J", density.error_integral_J(q, [k])[0].value)):
        mc, se = mc_error_integral(q, k, kind=kind, n_samples=10 ** 7, seed=8)
        mc_ok &= abs(quad - mc) <= 3.0 * se
    rng = np.random.default_rng(88)
    svd_ok = True
    for n, pts in (
            (4, [(k_, l) for k_ in range(4) for l in range(4)]),
            (6, [(k_, l) for k_ in range(6) for l in range(6)]),
            (8, [(k_, l) for k_ in range(0, 8, 2) for l in range(8)]),
            (8, [(k_, 0) for k_ in range(8)]),
            (16, [(k_, l) for k_ in range(0, 16, 2) for l in range(0, 16, 2)])):
        frep = reps.finite_weyl_heisenberg(n)
        gv = random_vec(rng, n, normalize=False)
        fb = frames.finite_frame_operator_spectrum(
            frames.finite_synthesis(frep, gv, frames.finite_subset(n, pts)))
        cols = []
        for (k_, l) in pts:
            mod = np.exp(2j * math.pi * l * np.arange(n) / n)
            cols.append(mod * np.roll(gv, k_))
        s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
        sq = np.zeros(n)
        sq[: len(s)] = s ** 2
        svd_ok &= abs(fb.lower - float(np.min(sq))) <= 1e-8
        svd_ok &= abs(fb.upper - float(np.max(sq))) <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = mc_ok and svd_ok and elapsed < 900.0
    assert verdict(8, "oracle equivalence", ok), (
        f"monte carlo ok {mc_ok}, svd ok {svd_ok}, elapsed {elapsed:.1f}s")


def test_acceptance_9_deterministic_reports(tmp_path):
    configs = [
        ("geometry", "geometry_lattice.ini"),
        ("geometry", "geometry_heisenberg.ini"),
        ("geometry", "geometry_gauge.ini"),
        ("rep-check", "rep_check.ini"),
        ("frame", "frame_finite.ini"),
        ("frame", "frame_gaussian.ini"),
        ("density", "density_frame.ini"),
        ("density", "density_riesz.ini"),
        ("hole", "hole.ini"),
    ]
    ok = True
    detail = []
    for kind, fname in configs:
        config = os.path.join(CONFIG_DIR, fname)
        out1 = tmp_path / "first" / fname
        out2 = tmp_path / "second" / fname
        code1 = cli.main([kind, "--config", config, "--out", str(out1)])
        code2 = cli.main([kind, "--config", config, "--out", str(out2)])
        same = sorted(os.listdir(out1)) == sorted(os.listdir(out2)) and all(
            (out1 / f).read_bytes() == (out2 / f).read_bytes()
            for f in os.listdir(out1))
        if code1 != 0 or code2 != 0 or not same:
            ok = False
            detail.append(fname)
    assert verdict(9, "deterministic reports", ok), \
        f"non-reproducible or failing configs: {detail}"
