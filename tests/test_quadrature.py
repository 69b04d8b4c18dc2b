"""Quadrature and disk-geometry helpers against closed forms and dense grids."""

import math

import numpy as np
import pytest

from coherentlab.quadrature import (
    QuadratureError,
    erfc_integral,
    gauss_profile_mass_outside,
    lens_area,
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


def lens_area_scalar_reference(r1, r2, d):
    """The branch-by-branch scalar formula, one distance at a time."""
    if r1 <= 0.0 or r2 <= 0.0 or d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        rm = min(r1, r2)
        return math.pi * rm * rm
    a1 = math.acos(max(-1.0, min(1.0, (d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))))
    a2 = math.acos(max(-1.0, min(1.0, (d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))))
    sq = (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)
    return r1 * r1 * a1 + r2 * r2 * a2 - 0.5 * math.sqrt(max(sq, 0.0))


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
    # an array of distances gives, entry by entry, the scalar calls and the
    # scalar formula to the last bit
    d = np.concatenate([[0.0, 0.5, 1.0, 1.7, 2.0, 2.5, 5.0, 8.0, 11.0, 12.0],
                        np.random.default_rng(3).uniform(0.0, 12.0, 200)])
    for r1, r2 in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (0.0, 1.0), (6.0, 5.0), (7.3, 6.3)):
        areas = lens_area(r1, r2, d)
        assert areas.shape == d.shape
        assert areas.tolist() == [lens_area(r1, r2, float(x)) for x in d]
        assert areas.tolist() == [lens_area_scalar_reference(r1, r2, float(x)) for x in d]


def test_lens_area_per_element_radii_equal_scalar_calls():
    # one radius pair per distance, as the batched error integrals pass them:
    # each entry is the scalar call and the scalar formula to the last bit,
    # across the disjoint, nested, touching, partial and zero-radius cases
    rng = np.random.default_rng(11)
    r1 = np.concatenate([[1.0, 2.0, 1.0, 0.0, 6.0, 1.0, 3.0], rng.uniform(0.0, 8.0, 300)])
    r2 = np.concatenate([[1.0, 1.0, 3.0, 1.0, 5.0, 0.0, 3.0], rng.uniform(0.0, 8.0, 300)])
    d = np.concatenate([[2.0, 1.0, 2.0, 0.5, 7.0, 0.3, 0.0], rng.uniform(0.0, 16.0, 300)])
    areas = lens_area(r1, r2, d)
    assert areas.shape == d.shape
    scalar = [lens_area(float(x), float(y), float(z)) for x, y, z in zip(r1, r2, d)]
    assert areas.tolist() == scalar
    assert scalar == [lens_area_scalar_reference(float(x), float(y), float(z))
                      for x, y, z in zip(r1, r2, d)]
    # scalar radii broadcast against the distances
    assert lens_area(2.0, r2, d).tolist() == lens_area(np.full(d.size, 2.0), r2, d).tolist()


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
