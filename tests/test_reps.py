"""Representation models: matrix coefficients, the window check, formal
degrees, and decay envelopes.

The continuous oracle is a dense direct trapezoid of
V_g f(x, w) = integral f(t) conj(g(t - x)) e^{-2 pi i w t} dt
computed with raw numpy, independent of the package's closed forms.
Finite-kind oracles are plain loops over the group.
"""

import cmath
import math

import numpy as np
import pytest

from coherentlab import density, frames, groups, reps
from coherentlab.reps import Window


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


def test_radial_profile_follows_the_window():
    gauss_rep = reps.gabor_gaussian()
    gw = reps.gaussian_window()
    assert reps.radial_profile(gauss_rep) is reps.GAUSSIAN_PROFILE
    assert reps.radial_profile(gauss_rep, gw) is reps.GAUSSIAN_PROFILE
    assert reps.radial_profile(reps.finite_weyl_heisenberg(4), np.ones(4)) is None
    # g = None takes the Gaussian window in every estimator
    q = groups.ball(groups.euclidean_metric(dim=2), 1.0)
    k = groups.ball(groups.euclidean_metric(dim=2), 4.0, closed=True)
    square = frames.lattice(0.5, 0.5)

    def riesz(rep, g):
        rb = frames.riesz_bounds(rep, g, square, restriction_radius=0.75)
        return rb.lower, rb.upper

    values = (
        lambda rep, g: density.error_integral_I(rep, g, q, [k])[0].value,
        lambda rep, g: density.error_integral_J(rep, g, q, [k])[0].value,
        lambda rep, g: reps.estimate_formal_degree(rep, g, 6.0),
        lambda rep, g: reps.decay_envelope_check(rep, g, 1.0, 2.0, 4.0),
        riesz)
    for value in values:
        assert value(gauss_rep, None) == value(gauss_rep, gw)


def test_sampled_and_mixed_windows_raise_value_error():
    gauss_rep = reps.gabor_gaussian()
    dw = Window(model="decay_profile")
    sw = Window(model="sample_vector")
    # the time-frequency kind has one window, and vectors belong to the finite kind
    for w, model in ((dw, "decay_profile"), (sw, "sample_vector"), (np.ones(4), "ndarray")):
        with pytest.raises(ValueError, match=f"needs the Gaussian window; got {model}"):
            reps.radial_profile(gauss_rep, w)
    for call in (lambda: reps.estimate_formal_degree(gauss_rep, sw, 6.0),
                 lambda: reps.decay_envelope_check(gauss_rep, sw, 1.0, 2.0, 4.0)):
        with pytest.raises(ValueError, match="needs the Gaussian window"):
            call()


def test_every_time_frequency_estimator_checks_the_window_in_radial_profile():
    rep = reps.gabor_gaussian()
    bad = Window(model="decay_profile")
    em = groups.euclidean_metric(dim=2)
    q = groups.ball(em, 1.0)
    k = groups.ball(em, 4.0, closed=True)
    lam = frames.lattice(0.5, 0.5)
    calls = {
        "estimate_formal_degree": lambda: reps.estimate_formal_degree(rep, bad, 6.0),
        "decay_envelope_check": lambda: reps.decay_envelope_check(rep, bad, 1.0, 2.0, 4.0),
        "error_integral_I": lambda: density.error_integral_I(rep, bad, q, [k]),
        "error_integral_J": lambda: density.error_integral_J(rep, bad, q, [k]),
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
    cal = reps.decay_envelope_check(rep, g, 1.0, 2.0, 8.0)
    assert not cal["passed"]  # c0 = 1 is too optimistic for exponent 2
    assert cal["max_ratio"] > 1.0
    honest = reps.decay_envelope_check(rep, g, cal["max_ratio"] * (1 + 1e-9),
                                       2.0, 8.0)
    assert honest["passed"]
    # the Gaussian beats any polynomial envelope eventually but not with a
    # synthetic tiny constant
    bogus = reps.decay_envelope_check(rep, g, 0.01, 4.0, 8.0)
    assert not bogus["passed"]
    with pytest.raises(ValueError):
        reps.decay_envelope_check(rep, g, 0.0, 2.0, 8.0)
    # the finite kind has no radial profile to sample
    frep = reps.finite_weyl_heisenberg(8)
    with pytest.raises(ValueError, match="time-frequency kind"):
        reps.decay_envelope_check(frep, np.ones(8), 1.0, 0.0, 8.0)


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
    """hermite_gabor_coefficients as first written: full-size temporaries for
    the log-magnitude, np.where for the r = 0 column, a separate exp array."""
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
def test_hermite_gabor_coefficients_bytes_match_the_reference(n_max):
    rng = np.random.default_rng(n_max)
    pts = np.vstack([[[0.0, 0.0]], rng.uniform(-17.0, 17.0, (300, 2)),
                     [[0.0, 3.5], [-2.25, 0.0]]])
    got = reps.hermite_gabor_coefficients(n_max, pts)
    assert got.tobytes() == _hermite_coefficients_reference(n_max, pts).tobytes()


def test_hermite_functions_are_orthonormal():
    t = np.linspace(-10.0, 10.0, 20001)
    h = reps.hermite_functions(5, t)
    gram = np.trapezoid(h[:, None, :] * h[None, :, :], t, axis=2)
    assert np.allclose(gram, np.eye(6), atol=1e-9)
