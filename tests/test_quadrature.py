"""Quadrature and disk-geometry helpers against closed forms and dense grids."""

import math

import numpy as np
import pytest

from coherentlab.quadrature import (
    QuadratureError,
    erfc_integral,
    gauss_profile_mass_outside,
    lens_area,
    power_profile_mass_outside,
    refine_trapezoid,
)


def lens_area_grid_oracle(r1, r2, d, n=2400):
    """Dense-grid area of the intersection of two disks, independent of the
    closed-form branch logic."""
    lo = -max(r1, r2)
    hi = d + max(r1, r2)
    xs = np.linspace(lo, hi, n)
    ys = np.linspace(-max(r1, r2), max(r1, r2), n)
    dx = xs[1] - xs[0]
    dy = ys[1] - ys[0]
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    inside = (xx ** 2 + yy ** 2 <= r1 ** 2) & ((xx - d) ** 2 + yy ** 2 <= r2 ** 2)
    return float(np.sum(inside)) * dx * dy


def refine_split_at(fn, a, b, cut, tol):
    """refine_trapezoid over [a, b], split at the kink when it lies inside,
    with the tolerance halved per piece."""
    if a < cut < b:
        return refine_trapezoid(fn, a, cut, tol / 2.0) + refine_trapezoid(fn, cut, b, tol / 2.0)
    return refine_trapezoid(fn, a, b, tol)


def test_refine_trapezoid_known_integrals():
    assert refine_trapezoid(np.sin, 0.0, math.pi, 1e-12) == pytest.approx(2.0, abs=1e-11)
    assert refine_trapezoid(np.exp, 0.0, 1.0, 1e-12) == pytest.approx(math.e - 1.0, abs=1e-11)
    # the integrand receives arrays, so vector expressions must work directly
    val = refine_trapezoid(lambda t: t ** 3 - 2.0 * t, -1.0, 2.0, 1e-12)
    assert val == pytest.approx(15.0 / 4.0 - 3.0, abs=1e-10)


def test_refine_trapezoid_degenerate_and_failure():
    assert refine_trapezoid(np.exp, 1.0, 1.0, 1e-10) == 0.0
    assert refine_trapezoid(np.exp, 2.0, 1.0, 1e-10) == 0.0
    with pytest.raises(QuadratureError):
        refine_trapezoid(lambda t: np.cos(300.0 * math.pi * t), 0.0, 1.0,
                         1e-14, max_doublings=3)


def test_lens_area_limit_cases():
    assert lens_area(1.0, 1.0, 2.0) == 0.0
    assert lens_area(1.0, 1.0, 5.0) == 0.0
    assert lens_area(2.0, 1.0, 0.5) == pytest.approx(math.pi, rel=1e-12)
    assert lens_area(1.0, 3.0, 0.0) == pytest.approx(math.pi, rel=1e-12)
    assert lens_area(0.0, 1.0, 0.5) == 0.0


def test_lens_area_against_grid_oracle():
    cases = [(1.0, 1.0, 1.0), (2.0, 1.5, 2.2), (3.0, 1.0, 2.5), (1.0, 2.0, 1.3)]
    for r1, r2, d in cases:
        oracle = lens_area_grid_oracle(r1, r2, d)
        assert lens_area(r1, r2, d) == pytest.approx(oracle, abs=2e-2)
    # symmetry in the two radii
    assert lens_area(2.0, 1.5, 2.2) == pytest.approx(lens_area(1.5, 2.0, 2.2), rel=1e-12)


def test_erfc_integral_matches_quadrature():
    for a in (0.0, 0.3, 1.0, 2.5):
        direct = refine_trapezoid(lambda v: np.exp(-math.pi * v * v), a, a + 12.0, 1e-13)
        assert erfc_integral(a) == pytest.approx(direct, abs=1e-12)
    assert erfc_integral(0.0) == pytest.approx(0.5, rel=1e-14)


def test_gauss_profile_mass_closed_form():
    # rho = 1, d = 0: pi (inner plateau) + 1 + 2 pi * 1/2 = 2 pi + 1
    assert gauss_profile_mass_outside(1.0, 0.0) == pytest.approx(2.0 * math.pi + 1.0,
                                                                 rel=1e-14)
    # generic values against direct radial quadrature with a negligible tail
    for rho, d in ((0.7, 1.3), (1.0, 0.0), (0.5, 0.2), (2.0, 6.0)):
        def integrand(r, _rho=rho):
            return np.exp(-math.pi * np.maximum(0.0, r - _rho) ** 2) * 2.0 * math.pi * r

        direct = refine_split_at(integrand, d, d + rho + 14.0, rho, 1e-11)
        assert gauss_profile_mass_outside(rho, d) == pytest.approx(direct, abs=1e-9)
    # monotone nonincreasing in d
    ds = np.linspace(0.0, 5.0, 21)
    masses = [gauss_profile_mass_outside(1.0, float(d)) for d in ds]
    assert all(m2 <= m1 + 1e-14 for m1, m2 in zip(masses, masses[1:]))


def test_power_profile_mass_closed_form():
    for rho, p, d in ((1.0, 1.75, 0.0), (0.5, 2.0, 2.0), (1.0, 3.0, 0.4)):
        def integrand(r, _rho=rho, _p=p):
            return (1.0 + np.maximum(0.0, r - _rho)) ** (-2.0 * _p) * 2.0 * math.pi * r

        hi = d + rho + 4000.0
        direct = refine_split_at(integrand, d, hi, rho, 1e-9)
        # remaining analytic tail of the oracle beyond hi
        w = 1.0 + hi - rho
        direct += 2.0 * math.pi * (w ** (2.0 - 2.0 * p) / (2.0 * p - 2.0)
                                   + (rho - 1.0) * w ** (1.0 - 2.0 * p) / (2.0 * p - 1.0))
        assert power_profile_mass_outside(rho, p, d) == pytest.approx(direct, rel=1e-7)
    with pytest.raises(ValueError):
        power_profile_mass_outside(1.0, 1.0, 0.0)
