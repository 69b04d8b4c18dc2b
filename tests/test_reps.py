"""Representation models: matrix coefficients, formal degrees, and decay
envelopes.

The continuous oracle is a dense direct trapezoid of
V_g f(x, w) = integral f(t) conj(g(t - x)) e^{-2 pi i w t} dt
computed with raw numpy, independent of the package's closed forms.
Finite-kind oracles are plain loops over the group.
"""

import cmath
import math

import numpy as np
import pytest

from coherentlab import reps
from reference import hermite_functions


def gauss(t):
    return 2.0 ** 0.25 * np.exp(-math.pi * t * t)


def stft_gauss_oracle(x, w, n=40001, half_width=8.0):
    """Dense direct trapezoid of the Gaussian ambiguity function."""
    t = np.linspace(-half_width, half_width, n)
    vals = gauss(t) * gauss(t - x) * np.exp(-2j * math.pi * w * t)
    re = np.trapezoid(vals.real, t)
    im = np.trapezoid(vals.imag, t)
    return complex(re, im)


def finite_coefficient_oracle(n, f, g, k, l):
    """<f, pi(k, l) g> by an explicit elementwise loop."""
    total = 0.0 + 0.0j
    for m in range(n):
        pg = math.e ** 0j * np.exp(2j * math.pi * l * m / n) * g[(m - k) % n]
        total += f[m] * np.conj(pg)
    return total


def test_gaussian_ambiguity_matches_dense_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(12):
        x, w = rng.uniform(-2.0, 2.0, size=2)
        oracle = stft_gauss_oracle(float(x), float(w))
        assert reps.gaussian_ambiguity(float(x), float(w)) == pytest.approx(
            oracle, abs=1e-10)
    # modulus is the radial Gaussian e^{-pi |z|^2 / 2}
    for x, w in ((0.3, -1.2), (1.0, 1.0), (0.0, 2.0)):
        assert abs(reps.gaussian_ambiguity(x, w)) == pytest.approx(
            math.exp(-math.pi * (x * x + w * w) / 2.0), rel=1e-13)
    assert reps.gaussian_ambiguity(0.0, 0.0) == pytest.approx(1.0)


def test_finite_coefficient_table_matches_loop_oracle():
    n = 8
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    table = reps.coefficient_table(rep, f, g)
    for k in range(n):
        for l in range(n):
            assert table[k, l] == pytest.approx(
                finite_coefficient_oracle(n, f, g, k, l), abs=1e-11)
    # apply_rep agrees with the dense unitary
    for k, l in ((1, 3), (5, 0), (7, 7)):
        assert np.allclose(reps.apply_rep(rep, (k, l), g),
                           reps.rep_matrix(rep, (k, l)) @ g, atol=1e-12)


def test_projective_relation_and_cocycle_identity():
    for n in (4, 12):
        rep = reps.finite_weyl_heisenberg(n)
        rng = np.random.default_rng(n)
        for _ in range(25):
            x = tuple(int(v) for v in rng.integers(0, n, size=2))
            y = tuple(int(v) for v in rng.integers(0, n, size=2))
            lhs = reps.rep_matrix(rep, x) @ reps.rep_matrix(rep, y)
            xy = ((x[0] + y[0]) % n, (x[1] + y[1]) % n)
            rhs = reps.cocycle_value(rep, x, y) * reps.rep_matrix(rep, xy)
            assert np.max(np.abs(lhs - rhs)) < 1e-12
            # 2-cocycle law sigma(x,y) sigma(xy,z) = sigma(x,yz) sigma(y,z)
            z = tuple(int(v) for v in rng.integers(0, n, size=2))
            yz = ((y[0] + z[0]) % n, (y[1] + z[1]) % n)
            assert reps.cocycle_value(rep, x, y) * reps.cocycle_value(rep, xy, z) \
                == pytest.approx(reps.cocycle_value(rep, x, yz)
                                 * reps.cocycle_value(rep, y, z), abs=1e-12)
    report = reps.verify_cocycle_identity(reps.finite_weyl_heisenberg(4))
    assert report["passed"] and report["max_deviation"] < 1e-12
    with pytest.raises(ValueError):
        reps.verify_cocycle_identity(reps.finite_weyl_heisenberg(32))


def test_orthogonality_relations_exhaustive():
    for n in (4, 8, 16):
        report = reps.verify_orthogonality(reps.finite_weyl_heisenberg(n),
                                           trials=8, seed=n)
        assert report["passed"]
        assert report["max_deviation"] < 1e-12
        assert report["formal_degree"] == pytest.approx(1.0 / n)


def test_formal_degree_estimates():
    n = 8
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(1)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    est = reps.estimate_formal_degree(rep, g, 2.0 * n)
    assert est == pytest.approx(1.0 / n, abs=1e-12)
    # invariance under window scaling: both numerator and denominator are
    # homogeneous of degree 4
    est2 = reps.estimate_formal_degree(rep, 2.0 * g, 2.0 * n)
    assert est2 == pytest.approx(est, rel=1e-12)
    assert reps.GAUSSIAN_PROFILE.formal_degree == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        reps.estimate_formal_degree(rep, g, 0.0)


def dense_radial_mass(fn, a, b, n=400001):
    """Integral of fn(|x|) over a <= |x| <= b in R^2: a dense uniform
    trapezoid of fn(r) 2 pi r in raw numpy."""
    r = np.linspace(a, b, n)
    return float(np.trapezoid(fn(r) * 2.0 * math.pi * r, r))


def test_profile_mass_outside_matches_dense_trapezoid():
    prof = reps.GAUSSIAN_PROFILE
    # rho = 1, d = 0: pi (inner plateau) + 1 + 2 pi * 1/2 = 2 pi + 1
    assert prof.mass_outside(1.0, 0.0) == pytest.approx(2.0 * math.pi + 1.0, rel=1e-14)
    # rho = 0 is the Gaussian itself: exp(-pi d^2) outside d
    for d in (0.0, 0.4, 1.5):
        assert prof.mass_outside(0.0, d) == pytest.approx(math.exp(-math.pi * d * d),
                                                          rel=1e-14)
    # the plateau, the Gaussian tail and the erfc term against a dense
    # trapezoid whose cut-off tail is below 1e-80
    for rho, d in ((0.7, 1.3), (1.0, 0.0), (0.5, 0.2), (2.0, 6.0), (1.25, 3.5), (3.0, 1.0)):
        direct = dense_radial_mass(lambda r, rho=rho: prof.maximal_sq(r, rho),
                                   d, max(d, rho) + 14.0)
        assert prof.mass_outside(rho, d) == pytest.approx(direct, rel=1e-8, abs=1e-12)
    # monotone nonincreasing in d
    masses = [prof.mass_outside(1.0, float(d)) for d in np.linspace(0.0, 5.0, 21)]
    assert all(m2 <= m1 + 1e-14 for m1, m2 in zip(masses, masses[1:]))


def test_gaussian_formal_degree_matches_dense_trapezoid():
    # ||g||^4 over the mass of |V_g g|^2 in the disk of each radius
    prof = reps.GAUSSIAN_PROFILE
    for radius in (0.3, 1.0, 2.0, 6.0):
        direct = dense_radial_mass(lambda r: np.exp(-math.pi * r * r), 0.0, radius)
        inside = prof.mass_outside(0.0, 0.0) - prof.mass_outside(0.0, radius)
        assert prof.norm_sq ** 2 / inside == pytest.approx(1.0 / direct, rel=1e-9)
    # the whole-plane mass of |V_g g|^2 is ||g||^4 / d_pi = 1: no float is left
    # past radius 6
    assert prof.norm_sq ** 2 / (prof.mass_outside(0.0, 0.0)
                                - prof.mass_outside(0.0, 6.0)) == 1.0
    assert prof.formal_degree == 1.0


def bisection_level_radius(profile, norm_sq, hi=64.0):
    """The 200-step bisection the cover constant once took its radius from:
    the largest u with profile(r) > norm_sq/2 on [0, u)."""
    level = norm_sq / 2.0
    lo, up = 0.0, hi
    if profile(0.0) <= level:
        return 0.0
    for _ in range(200):
        mid = (lo + up) / 2.0
        if profile(mid) > level:
            lo = mid
        else:
            up = mid
    return lo


class ScaledProfile(reps.RadialProfile):
    """The Gaussian profile times a factor within a few ulps of 1, which
    moves the level radius a few floats off its start."""

    def __init__(self, factor):
        self.factor = factor

    def profile(self, r):
        return super().profile(r) * self.factor


def test_level_radius_is_the_last_float_above_half_the_norm():
    start = math.sqrt(2.0 * math.log(2.0) / math.pi)
    profiles = [reps.GAUSSIAN_PROFILE] + [ScaledProfile(1.0 + k * 2.0 ** -52)
                                          for k in (-6, -2, 2, 6)]
    radii = []
    for prof in profiles:
        u = prof.level_radius
        assert u == bisection_level_radius(prof.profile, prof.norm_sq)
        level = prof.norm_sq / 2.0
        assert prof.profile(u) > level >= prof.profile(math.nextafter(u, math.inf))
        assert u == pytest.approx(start, rel=1e-14)
        radii.append(u)
    # the scaled profiles walk both ways from the start
    assert min(radii) < radii[0] < max(radii)


def test_envelope_constant_is_the_supremum_of_the_decay_envelope():
    prof = reps.GAUSSIAN_PROFILE

    def envelope(r, exponent):
        return np.exp(-math.pi * r * r / 2.0) * (1.0 + r) ** exponent / prof.norm_sq

    for exponent, c0, r_star in ((1.5, 1.2940167992883957, 0.35292),
                                 (2.0, 1.5298739470461407, 0.44160),
                                 (3.0, 2.3268971759736017, 0.59769)):
        got, arg = prof.envelope_constant(exponent)
        assert arg == pytest.approx(r_star, abs=1e-5)
        assert got == pytest.approx(c0, rel=1e-12)
        # a 1e-8 grid about r* and a coarse one out to 50: C0 is never below
        # either maximum and is within 1e-12 of the dense one
        dense = envelope(np.linspace(arg - 1e-3, arg + 1e-3, 200_001), exponent).max()
        coarse = envelope(np.linspace(0.0, 50.0, 50_001), exponent).max()
        assert got >= dense >= coarse
        assert got == pytest.approx(dense, rel=1e-12)
        # c0 = 1 is too optimistic: (1 + r)^exponent beats the profile near 0
        assert got > 1.0
    # the rounding slack grows with the exponent, up to the largest a hole
    # run takes ((2 + alpha) / 2 with 6^alpha finite)
    for exponent in (0.01, 0.5, 7.0, 40.0, 199.0):
        got, arg = prof.envelope_constant(exponent)
        r = np.linspace(arg - 1e-4, arg + 1e-4, 20_001)
        grid = np.exp(exponent * np.log1p(r) - math.pi * r * r / 2.0)
        assert got >= grid.max(), exponent
        assert got == pytest.approx(grid.max(), rel=1e-11), exponent


def test_hermite_gabor_coefficients_match_quadrature():
    t = np.linspace(-9.0, 9.0, 36001)
    h = hermite_functions(6, t)
    pts = np.array([[0.4, -0.7], [1.5, 0.2], [0.0, 0.0], [-0.6, -0.6]])
    coeff = reps.hermite_gabor_coefficients(6, pts)
    for j, (x, w) in enumerate(pts):
        shifted = gauss(t - x) * np.exp(2j * math.pi * w * t)
        for m in range(7):
            # row m is <h_m, pi(z) g> with real Hermite functions
            direct = np.trapezoid(h[m] * np.conj(shifted), t)
            assert coeff[m, j] == pytest.approx(direct, abs=1e-10)
    # completeness: the coefficient column at any point has unit energy in the
    # limit; at |z| <= 1.5 the first 64 modes already capture it
    big = reps.hermite_gabor_coefficients(64, pts)
    energies = np.sum(np.abs(big) ** 2, axis=0)
    assert np.allclose(energies, 1.0, atol=1e-10)


def test_hermite_gabor_coefficients_at_high_order():
    # the phases are running products down 513 modes: compare every entry
    # with the closed form evaluated by cmath, one entry at a time
    rng = np.random.default_rng(11)
    radius = 16.0 * np.sqrt(rng.uniform(0.0, 1.0, 40))
    angle = rng.uniform(-math.pi, math.pi, 40)
    pts = np.vstack([np.column_stack([radius * np.cos(angle), radius * np.sin(angle)]),
                     [[0.0, 0.0], [16.0, 0.0], [0.0, -16.0], [-11.3, 11.3]]])
    coeff = reps.hermite_gabor_coefficients(512, pts)
    assert coeff.shape == (513, len(pts))
    for j, (x, w) in enumerate(pts):
        for n in range(513):
            if x == 0.0 and w == 0.0:
                want = 1.0 if n == 0 else 0.0
            else:
                want = cmath.exp(-1j * math.pi * x * w - math.pi * (x * x + w * w) / 2.0
                                 + n * (0.5 * math.log(math.pi) + cmath.log(x - 1j * w))
                                 - 0.5 * math.lgamma(n + 1.0))
            assert abs(coeff[n, j] - want) <= 1e-12, (n, x, w)
    # Bessel: the modes are orthonormal, so no column carries more than
    # ||pi(z) g||^2 = 1; with pi |z|^2 well below 512 the rest is negligible
    energy = np.sum(np.abs(coeff) ** 2, axis=0)
    assert np.all(energy <= 1.0 + 1e-12)
    inner = np.hypot(pts[:, 0], pts[:, 1]) <= 8.0
    assert inner.sum() >= 10 and np.all(energy[inner] >= 1.0 - 1e-10)


def _hermite_coefficients_reference(n_max, points):
    """hermite_gabor_coefficients in log form: the magnitude from lgamma and
    log |z|, the phase a running product of e^(i arg(x - i w))."""
    pts = np.asarray(points, dtype=float)
    x, w = pts[:, 0], pts[:, 1]
    rsq = x * x + w * w
    r = np.sqrt(rsq)
    ns = np.arange(n_max + 1, dtype=float)
    lgam = np.array([math.lgamma(n + 1.0) for n in ns])
    logr = np.where(r > 0, np.log(np.maximum(r, 1e-300)), 0.0)
    logmag = (ns[:, None] * (0.5 * math.log(math.pi) + logr[None, :])
              - 0.5 * lgam[:, None] - math.pi * rsq[None, :] / 2.0)
    logmag = np.where((r[None, :] == 0) & (ns[:, None] > 0), -math.inf, logmag)
    step = np.exp(1j * np.arctan2(-w, x))
    phase = np.empty(logmag.shape, dtype=complex)
    phase[0] = np.exp(1j * (-math.pi * x * w))
    for n in range(1, n_max + 1):
        np.multiply(phase[n - 1], step, out=phase[n])
    phase *= np.exp(logmag)
    return phase


@pytest.mark.parametrize("n_max", [0, 1, 254, 512])
def test_hermite_gabor_coefficients_match_the_log_form_reference(n_max):
    # the recurrence rounds differently from the log form, so the bits differ;
    # the corners reach |z| ~ 24, past the radius 21.2 where row 0 underflows
    rng = np.random.default_rng(n_max)
    pts = np.vstack([[[0.0, 0.0]], rng.uniform(-17.0, 17.0, (300, 2)),
                     [[0.0, 3.5], [-2.25, 0.0]]])
    assert np.hypot(pts[:, 0], pts[:, 1]).max() > 22.0
    got = reps.hermite_gabor_coefficients(n_max, pts)
    assert got.shape == (n_max + 1, len(pts))
    assert np.max(np.abs(got - _hermite_coefficients_reference(n_max, pts))) <= 1e-13
    assert np.array_equal(got[:, 0], np.eye(n_max + 1)[0])
    sign = (-1.0) ** np.arange(n_max + 1)[:, None]
    assert np.max(np.abs(reps.hermite_gabor_coefficients(n_max, -pts) - sign * got)) <= 1e-15
    flipped = reps.hermite_gabor_coefficients(n_max, pts * (1.0, -1.0))
    assert np.max(np.abs(flipped - got.conj())) <= 1e-15
    assert np.all(np.abs(got) <= 1.0)


def test_hermite_functions_are_orthonormal():
    t = np.linspace(-10.0, 10.0, 20001)
    h = hermite_functions(5, t)
    gram = np.trapezoid(h[:, None, :] * h[None, :, :], t, axis=2)
    assert np.allclose(gram, np.eye(6), atol=1e-9)
