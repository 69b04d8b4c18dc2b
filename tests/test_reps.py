"""Representation models: matrix coefficients, maximal functions, weighted
norms, formal degrees, and decay envelopes.

The continuous oracle is a dense direct trapezoid of
V_g f(x, w) = integral f(t) conj(g(t - x)) e^{-2 pi i w t} dt
computed with raw numpy, independent of the adaptive quadrature in the
package.  Finite-kind oracles are plain loops over the group.
"""

import math

import numpy as np
import pytest

from coherentlab import density, frames, groups, reps
from coherentlab.reps import (
    GAUSSIAN_AMBIGUITY_LIPSCHITZ,
    NotInWeightClassError,
    Window,
)


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
    assert reps.matrix_coefficient(rep, g, g, (0.7, -0.4)) == pytest.approx(
        stft_gauss_oracle(0.7, -0.4), abs=1e-10)
    # a sampled copy of the same window goes through adaptive quadrature
    t = np.arange(-7.0, 7.0 + 1e-12, 1.0 / 1024.0)
    ws = reps.sampled_window(t, gauss(t))
    nrep = reps.gabor_numeric(ws)
    for x, w in ((0.5, 0.25), (1.2, -0.8), (0.0, 2.0)):
        closed = reps.gaussian_ambiguity(x, w)
        val = reps.matrix_coefficient(nrep, ws, ws, (x, w), tol=1e-9)
        assert val == pytest.approx(closed, abs=5e-6)
    # disjoint supports give exactly zero
    far = reps.matrix_coefficient(nrep, ws, ws, (20.0, 0.0))
    assert far == 0.0


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


def test_weighted_maximal_norm_decay_window_and_weight_class():
    rep = reps.gabor_decay(2.0, 1.0, 0.5, 1.0)
    em = groups.euclidean_metric(dim=2)
    q = groups.ball(em, None, 1.0)
    val = reps.weighted_maximal_norm(rep, rep.window, q, 0.0, tol=1e-9)
    # oracle: dense radial trapezoid of (1 + max(0, r - 1))^{-3.5} * 2 pi r on
    # [0, R] plus the exact tail: with w = 1 + r - 1 = r,
    # int_R^inf w^{-3.5} 2 pi w dw = 2 pi R^{-3/2} / 1.5
    hi = 256.0
    r = np.linspace(0.0, hi, 4_000_001)
    m_sq = (1.0 + np.maximum(0.0, r - 1.0)) ** (-3.5)
    cur = float(np.trapezoid(m_sq * 2.0 * math.pi * r, r))
    cur += 2.0 * math.pi * hi ** -1.5 / 1.5
    assert val == pytest.approx(cur, abs=1e-5)
    # alpha at the divergence threshold alpha_p + beta + delta - 1 = 1.5
    with pytest.raises(NotInWeightClassError):
        reps.weighted_maximal_norm(rep, rep.window, q, 1.5)
    # below threshold the integral is finite, and the threshold moves with delta
    assert reps.weighted_maximal_norm(rep, rep.window, q, 0.5, tol=1e-4) > val
    with pytest.raises(NotInWeightClassError):
        reps.weighted_maximal_norm(rep, rep.window, q, 1.49, delta=0.9)


def test_radial_profile_follows_the_window():
    gauss_rep = reps.gabor_gaussian()
    decay_rep = reps.gabor_decay(2.0, 1.0, 0.5, 1.0)
    assert reps.radial_profile(gauss_rep) is reps.GAUSSIAN_PROFILE
    assert reps.radial_profile(decay_rep) == reps.RadialProfile((2.0, 1.0, 0.5, 1.0))
    assert reps.radial_profile(decay_rep, reps.gaussian_window()) is reps.GAUSSIAN_PROFILE
    assert reps.radial_profile(reps.finite_weyl_heisenberg(4), np.ones(4)) is None
    t = np.linspace(-1.0, 1.0, 65)
    sampled = reps.gabor_numeric(reps.sampled_window(t, np.cos(t)))
    assert reps.radial_profile(sampled) is None
    # the window decides the model everywhere: a decay window on the Gaussian
    # model gives the decay values, a Gaussian window on the decay model the
    # Gaussian ones
    window = reps.decay_window(2.0, 1.0, 0.5, 1.0)
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
        assert value(gauss_rep, window) == value(decay_rep, decay_rep.window)
        assert value(decay_rep, reps.gaussian_window()) \
            == value(gauss_rep, gauss_rep.window)
    # g = None takes the model's window
    assert riesz(decay_rep, None) == riesz(gauss_rep, window)
    # Gram oracle: G[i, j] = e^{2 pi i (w_j - w_i) x_j} profile(|lam_i - lam_j|)
    # with the decay profile (1 + r)^(-7/4), built from scratch
    pts = np.array(square.points)
    dist = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
    phase = np.exp(2j * math.pi * (pts[None, :, 1] - pts[:, None, 1]) * pts[None, :, 0])
    eigs = np.linalg.eigvalsh(phase * (1.0 + dist) ** -1.75)
    assert riesz(gauss_rep, window) == pytest.approx((eigs[0], eigs[-1]), abs=1e-12)
    assert riesz(gauss_rep, window) == pytest.approx((0.13522, 2.24029), abs=1e-5)
    assert reps.matrix_coefficient(decay_rep, reps.gaussian_window(),
                                   reps.gaussian_window(), (1.0, 0.0)) \
        == pytest.approx(math.exp(-math.pi / 2.0), rel=1e-14)


def test_sampled_and_mixed_windows_raise_value_error():
    gauss_rep = reps.gabor_gaussian()
    gw = reps.gaussian_window()
    dw = reps.decay_window(2.0, 1.0, 0.5, 1.0)
    t = np.linspace(-1.0, 1.0, 65)
    sw = reps.sampled_window(t, np.cos(t))
    # a decay window models |V_g g| only: it pairs with no other model
    for f, g in ((gw, dw), (dw, gw), (sw, dw), (dw, sw)):
        with pytest.raises(ValueError, match="of g's model"):
            reps.matrix_coefficient(gauss_rep, f, g, (1.0, 0.0))
        with pytest.raises(ValueError, match="of its model"):
            reps.coefficient_field(gauss_rep, f, g)
    # the estimators need a radial profile; a sampled window has none
    sampled = reps.gabor_numeric(sw)
    em = groups.euclidean_metric(dim=2)
    q = groups.ball(em, None, 1.0)
    for call in (lambda: reps.weighted_maximal_norm(sampled, sw, q, 0.5),
                 lambda: reps.estimate_formal_degree(sampled, sw, 6.0),
                 lambda: reps.coefficient_field(sampled),
                 lambda: reps.coefficient_field(gauss_rep, gw, sw),
                 lambda: reps.decay_envelope_check(sampled, sw, em, 1.0, 2.0, 4.0)):
        with pytest.raises(ValueError, match="Gaussian or decay window"):
            call()
    non_radial = reps.CoefficientField(domain=sampled.group, evaluate=lambda x: 0j,
                                       magnitude=lambda x: 0.0, norms=(1.0, 1.0))
    with pytest.raises(ValueError, match="radial"):
        reps.local_maximal(non_radial, q, (0.0, 0.0))


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


def test_window_constructors_and_csv_roundtrip(tmp_path):
    w = reps.vector_window([1.0, 2.0, 2.0])
    assert w.norm == pytest.approx(3.0)
    with pytest.raises(ValueError):
        reps.gabor_numeric(w)  # no time grid
    t = np.linspace(-1.0, 1.0, 513)
    s = reps.sampled_window(t, np.cos(t))
    assert s.times is not None and s.norm > 0
    path = tmp_path / "win.csv"
    with open(path, "w") as fh:
        fh.write("index,re,im\n")
        for i, v in enumerate((1.0, 0.5, -0.25)):
            fh.write(f"{i},{v},0.0\n")
    loaded = reps.window_from_csv(str(path))
    assert loaded.vector.shape == (3,)
    assert loaded.norm == pytest.approx(math.sqrt(1.0 + 0.25 + 0.0625))
    gap = tmp_path / "gap.csv"
    with open(gap, "w") as fh:
        fh.write("index,re,im\n0,1.0,0.0\n2,1.0,0.0\n")
    with pytest.raises(ValueError):
        reps.window_from_csv(str(gap))
    spath = tmp_path / "samples.csv"
    with open(spath, "w") as fh:
        fh.write("index,re,im\n")
        for i, v in enumerate(np.cos(t)):
            fh.write(f"{i},{v},0.0\n")
    sloaded = reps.sampled_window_from_csv(str(spath), t0=-1.0, dt=t[1] - t[0])
    assert sloaded.norm == pytest.approx(s.norm, rel=1e-12)
