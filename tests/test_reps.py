"""Representation models: matrix coefficients, maximal functions, weighted
norms, formal degrees, and decay envelopes.

The continuous oracle is a dense direct trapezoid of
V_g f(x, w) = integral f(t) conj(g(t - x)) e^{-2 pi i w t} dt
computed with raw numpy, independent of the package's closed forms.
Finite-kind oracles are plain loops over the group.
"""

import math

import numpy as np
import pytest

from coherentlab import density, frames, groups, reps
from coherentlab.reps import GAUSSIAN_AMBIGUITY_LIPSCHITZ, Window


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


def test_matrix_coefficient_gaussian_and_sampled_paths():
    rep = reps.gabor_gaussian()
    g = reps.gaussian_window()
    for x, w in ((0.7, -0.4), (0.5, 0.25), (1.2, -0.8), (0.0, 2.0)):
        assert reps.matrix_coefficient(rep, g, g, (x, w)) == pytest.approx(
            stft_gauss_oracle(x, w), abs=1e-10)
    # g = None is the Gaussian window too
    assert reps.matrix_coefficient(rep, None, None, (0.7, -0.4)) \
        == reps.matrix_coefficient(rep, g, g, (0.7, -0.4))


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
            xy = rep.group.multiply(x, y)
            rhs = reps.cocycle_value(rep, x, y) * reps.rep_matrix(rep, xy)
            assert np.max(np.abs(lhs - rhs)) < 1e-12
            # 2-cocycle law sigma(x,y) sigma(xy,z) = sigma(x,yz) sigma(y,z)
            z = tuple(int(v) for v in rng.integers(0, n, size=2))
            yz = rep.group.multiply(y, z)
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


def test_local_maximal_radial_formula_and_finite_exactness():
    rep = reps.gabor_gaussian()
    fld = reps.coefficient_field(rep)
    em = groups.euclidean_metric(dim=2)
    q = groups.ball(em, None, 1.0)
    # sup over the disk around x of a radial nonincreasing profile
    assert reps.local_maximal(fld, q, (3.0, 0.0)) == pytest.approx(
        math.exp(-math.pi * 4.0 / 2.0), rel=1e-12)
    assert reps.local_maximal(fld, q, (0.5, 0.0)) == pytest.approx(1.0)
    # brute grid oracle at an off-axis point
    x = (1.7, -2.2)
    r = math.hypot(*x)
    grid = []
    for a in np.linspace(-1.0, 1.0, 401):
        for b in np.linspace(-1.0, 1.0, 401):
            if a * a + b * b <= 1.0:
                grid.append(fld.magnitude((x[0] + a, x[1] + b)))
    assert reps.local_maximal(fld, q, x) == pytest.approx(max(grid), abs=1e-5)
    # finite kind: exact max over the enumerated neighborhood
    n = 8
    frep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(2)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ffld = reps.coefficient_field(frep, g, g)
    wq = groups.ball(groups.word_metric(frep.group), None, 1.0)
    x0 = (3, 5)
    expected = max(ffld.magnitude(frep.group.multiply(x0, z)) for z in wq.points)
    assert reps.local_maximal(ffld, wq, x0) == pytest.approx(expected, rel=1e-14)
    off_center = groups.ball(groups.euclidean_metric(dim=2), (1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        reps.local_maximal(fld, off_center, (0.0, 0.0))


def cartesian_trapezoid_2d(f, lo, hi, n):
    xs = np.linspace(lo, hi, n)
    rows = np.empty(n)
    for i, y in enumerate(xs):
        rows[i] = np.trapezoid(f(xs, y), xs)
    return float(np.trapezoid(rows, xs))


def test_weighted_maximal_norm_gaussian_matches_2d_brute():
    rep = reps.gabor_gaussian()
    g = reps.gaussian_window()
    em = groups.euclidean_metric(dim=2)
    q = groups.ball(em, None, 1.0)
    for alpha in (0.0, 2.0):
        def integrand(x, y, _a=alpha):
            r = np.hypot(x, y)
            m_sq = np.exp(-math.pi * np.maximum(0.0, r - 1.0) ** 2)
            return m_sq * (1.0 + r) ** _a

        # Richardson-extrapolated Cartesian trapezoid; the integrand is below
        # 1e-30 outside [-8, 8]^2 so truncation is negligible
        coarse = cartesian_trapezoid_2d(integrand, -8.0, 8.0, 2001)
        fine = cartesian_trapezoid_2d(integrand, -8.0, 8.0, 4001)
        brute = (4.0 * fine - coarse) / 3.0
        val = reps.weighted_maximal_norm(rep, g, q, alpha, tol=1e-9)
        assert val == pytest.approx(brute, abs=1e-6)
    with pytest.raises(ValueError):
        reps.weighted_maximal_norm(rep, g, q, -1.0)


def test_weighted_maximal_norm_finite_matches_loop():
    n = 6
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(9)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q = groups.ball(groups.word_metric(rep.group), None, 1.0)
    table = np.abs(reps.coefficient_table(rep, g, g))
    total = 0.0
    for k in range(n):
        for l in range(n):
            m = max(table[(k + dk) % n, (l + dl) % n] for (dk, dl) in q.points)
            wl = min(k, n - k) + min(l, n - l)
            total += m * m * (1.0 + wl) ** 2
    assert reps.weighted_maximal_norm(rep, g, q, 2.0) == pytest.approx(total, rel=1e-12)


def test_radial_profile_follows_the_window():
    gauss_rep = reps.gabor_gaussian()
    gw = reps.gaussian_window()
    assert reps.radial_profile(gauss_rep) is reps.GAUSSIAN_PROFILE
    assert reps.radial_profile(gauss_rep, gw) is reps.GAUSSIAN_PROFILE
    assert reps.radial_profile(reps.finite_weyl_heisenberg(4), np.ones(4)) is None
    # g = None takes the Gaussian window in every estimator
    q = groups.ball(groups.euclidean_metric(dim=2), None, 1.0)
    k = groups.ball(groups.euclidean_metric(dim=2), None, 4.0, closed=True)
    square = frames.explicit_points([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)])

    def riesz(rep, g):
        rb = frames.riesz_bounds(rep, g, square)
        return rb.lower, rb.upper

    values = (
        lambda rep, g: reps.weighted_maximal_norm(rep, g, q, 0.5, tol=1e-6),
        lambda rep, g: density.error_integral_I(rep, g, q, k).value,
        lambda rep, g: density.error_integral_J(rep, g, q, k).value,
        lambda rep, g: reps.estimate_formal_degree(rep, g, 6.0),
        riesz,
        lambda rep, g: reps.matrix_coefficient(rep, g, g, (1.0, 0.5)))
    for value in values:
        assert value(gauss_rep, None) == value(gauss_rep, gw)
    assert reps.matrix_coefficient(gauss_rep, gw, gw, (1.0, 0.0)) \
        == pytest.approx(math.exp(-math.pi / 2.0), rel=1e-14)


def test_sampled_and_mixed_windows_raise_value_error():
    gauss_rep = reps.gabor_gaussian()
    gw = reps.gaussian_window()
    dw = Window(model="decay_profile")
    sw = Window(model="sample_vector")
    # the time-frequency kind has one window: no other window pairs with it
    for f, g in ((gw, dw), (dw, gw), (sw, dw), (dw, sw), (gw, sw), (sw, gw)):
        with pytest.raises(ValueError, match="needs the Gaussian window"):
            reps.matrix_coefficient(gauss_rep, f, g, (1.0, 0.0))
        with pytest.raises(ValueError, match="needs the Gaussian window"):
            reps.coefficient_field(gauss_rep, f, g)
    # vectors belong to the finite kind
    with pytest.raises(ValueError, match="needs the Gaussian window; got ndarray"):
        reps.matrix_coefficient(gauss_rep, np.ones(4), np.ones(4), (1.0, 0.0))
    em = groups.euclidean_metric(dim=2)
    q = groups.ball(em, None, 1.0)
    for call in (lambda: reps.weighted_maximal_norm(gauss_rep, sw, q, 0.5),
                 lambda: reps.estimate_formal_degree(gauss_rep, sw, 6.0),
                 lambda: reps.coefficient_field(gauss_rep, gw, sw),
                 lambda: reps.decay_envelope_check(gauss_rep, sw, em, 1.0, 2.0, 4.0)):
        with pytest.raises(ValueError, match="needs the Gaussian window"):
            call()
    non_radial = reps.CoefficientField(domain=gauss_rep.group, evaluate=lambda x: 0j,
                                       magnitude=lambda x: 0.0, norms=(1.0, 1.0))
    with pytest.raises(ValueError, match="radial"):
        reps.local_maximal(non_radial, q, (0.0, 0.0))


def test_every_time_frequency_estimator_checks_the_window_in_radial_profile():
    rep = reps.gabor_gaussian()
    bad = Window(model="decay_profile")
    em = groups.euclidean_metric(dim=2)
    q = groups.ball(em, None, 1.0)
    k = groups.ball(em, None, 4.0, closed=True)
    lam = frames.lattice(0.5, 0.5)
    calls = {
        "matrix_coefficient": lambda: reps.matrix_coefficient(rep, bad, bad, (0.5, 0.5)),
        "coefficient_field": lambda: reps.coefficient_field(rep, bad, bad),
        "weighted_maximal_norm": lambda: reps.weighted_maximal_norm(rep, bad, q, 0.5),
        "estimate_formal_degree": lambda: reps.estimate_formal_degree(rep, bad, 6.0),
        "error_integral_I": lambda: density.error_integral_I(rep, bad, q, k),
        "error_integral_J": lambda: density.error_integral_J(rep, bad, q, k),
        "mc_error_integral": lambda: density.mc_error_integral(rep, bad, q, k,
                                                               n_samples=10),
        "lemma_cover_constant": lambda: frames.lemma_cover_constant(rep, bad, q),
        "amalgam_check": lambda: frames.amalgam_check(rep, bad, lam, q, 4.0),
        "frame_operator_spectrum": lambda: frames.frame_operator_spectrum(rep, bad, lam),
        "riesz_bounds": lambda: frames.riesz_bounds(rep, bad, lam, restriction_radius=3.0),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="time-frequency kind needs the Gaussian "
                                             "window; got decay_profile"):
            call()
            pytest.fail(f"{name} accepted a non-Gaussian window")


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
    grep = reps.gabor_gaussian()
    gw = reps.gaussian_window()
    assert reps.estimate_formal_degree(grep, gw, 6.0) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        reps.estimate_formal_degree(rep, g, 0.0)


def test_decay_envelope_check_calibration_and_failure():
    rep = reps.gabor_gaussian()
    g = reps.gaussian_window()
    em = groups.euclidean_metric(dim=2)
    cal = reps.decay_envelope_check(rep, g, em, 1.0, 2.0, 8.0)
    assert not cal["passed"]  # c0 = 1 is too optimistic for exponent 2
    assert cal["max_ratio"] > 1.0
    honest = reps.decay_envelope_check(rep, g, em, cal["max_ratio"] * (1 + 1e-9),
                                       2.0, 8.0)
    assert honest["passed"]
    # the Gaussian beats any polynomial envelope eventually but not with a
    # synthetic tiny constant
    bogus = reps.decay_envelope_check(rep, g, em, 0.01, 4.0, 8.0)
    assert not bogus["passed"]
    with pytest.raises(ValueError):
        reps.decay_envelope_check(rep, g, em, 0.0, 2.0, 8.0)


def test_decay_envelope_check_finite_kind():
    n = 8
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(4)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = g / np.linalg.norm(g)
    wm = groups.word_metric(rep.group)
    cal = reps.decay_envelope_check(rep, g, wm, 1.0, 0.0, float(n))
    # exponent 0: the envelope is c0 ||g||^2 and |V_g g(0)| = ||g||^2 saturates it
    assert cal["max_ratio"] == pytest.approx(1.0, rel=1e-10)
    assert cal["passed"]


def test_hermite_gabor_coefficients_match_quadrature():
    t = np.linspace(-9.0, 9.0, 36001)
    h = reps.hermite_functions(6, t)
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


def test_hermite_functions_are_orthonormal():
    t = np.linspace(-10.0, 10.0, 20001)
    h = reps.hermite_functions(5, t)
    gram = np.trapezoid(h[:, None, :] * h[None, :, :], t, axis=2)
    assert np.allclose(gram, np.eye(6), atol=1e-9)


def test_ambiguity_lipschitz_constant_certifies_radial_slope():
    # |d/dr e^{-pi r^2/2}| = pi r e^{-pi r^2/2}, maximized at r = 1/sqrt(pi)
    rs = np.linspace(0.0, 4.0, 4001)
    slopes = math.pi * rs * np.exp(-math.pi * rs * rs / 2.0)
    assert float(np.max(slopes)) <= GAUSSIAN_AMBIGUITY_LIPSCHITZ + 1e-12
    assert float(np.max(slopes)) == pytest.approx(GAUSSIAN_AMBIGUITY_LIPSCHITZ,
                                                  rel=1e-6)
