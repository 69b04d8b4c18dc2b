"""Quadrature and disk-geometry helpers against closed forms and dense grids."""

import math

import numpy as np
import pytest

from coherentlab.quadrature import QuadratureError, lens_area, refine_rows
from coherentlab.reps import GAUSSIAN_PROFILE
from reference import lens_area_scalar


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
    """The branch-by-branch scalar formula, one distance at a time, with the
    angle function lens_area uses."""
    return lens_area_scalar(r1, r2, d, acos=np.arccos)


def refine_one(fn, a, b, tol, **kw):
    """The one-row refine_rows call for an integrand of the nodes alone."""
    return float(refine_rows(lambda u, rows: fn(u[0]), [a], [b], tol, **kw)[0])


def test_refine_rows_one_row_known_integrals():
    assert refine_one(np.sin, 0.0, math.pi, 1e-12) == pytest.approx(2.0, abs=1e-11)
    assert refine_one(np.exp, 0.0, 1.0, 1e-12) == pytest.approx(math.e - 1.0, abs=1e-11)
    # the integrand receives arrays, so vector expressions must work directly
    val = refine_one(lambda t: t ** 3 - 2.0 * t, -1.0, 2.0, 1e-12)
    assert val == pytest.approx(15.0 / 4.0 - 3.0, abs=1e-10)


def test_refine_rows_one_row_degenerate_and_failure():
    assert refine_one(np.exp, 1.0, 1.0, 1e-10) == 0.0
    assert refine_one(np.exp, 2.0, 1.0, 1e-10) == 0.0
    with pytest.raises(QuadratureError):
        refine_one(lambda t: np.cos(300.0 * math.pi * t), 0.0, 1.0, 1e-14, max_doublings=3)


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


def test_np_arccos_is_within_one_ulp_of_math_acos():
    # lens_area takes its angles from np.arccos; where numpy dispatches it to
    # SIMD code it is not libm's acos, but stays within 1 ulp of it, on
    # seeded cosines and on +-1, +-0.5 and 0 and their float neighbours
    marks = [-1.0, -0.5, 0.0, 0.5, 1.0]
    near = [float(np.nextafter(v, t)) for v in marks for t in (-1.0, 1.0) if v != t]
    x = np.concatenate([marks, near, np.random.default_rng(19).uniform(-1.0, 1.0, 100_000)])
    got = np.arccos(x)
    want = np.array([math.acos(v) for v in x.tolist()])
    # angles lie in [0, pi], so their bit patterns order like the floats
    assert np.max(np.abs(got.view(np.int64) - want.view(np.int64))) <= 1


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
    # the Gaussian tail int_a^inf exp(-pi v^2) dv of mass_outside: for
    # d = rho + a it is what is left past exp(-pi a^2), over 2 pi rho
    prof = GAUSSIAN_PROFILE
    for rho in (0.5, 1.0, 2.0):
        for a in (0.0, 0.3, 1.0, 2.5):
            tail = ((prof.mass_outside(rho, rho + a) - math.exp(-math.pi * a * a))
                    / (2.0 * math.pi * rho))
            direct = refine_one(lambda v: np.exp(-math.pi * v * v), a, a + 12.0, 1e-13)
            assert tail == pytest.approx(direct, abs=1e-12)
    # int_0^inf exp(-pi v^2) dv = 1/2
    assert prof.mass_outside(1.0, 1.0) - 1.0 == pytest.approx(math.pi, rel=1e-14)


def refine_split_at(fn, a, b, cut, tol):
    """One-row refine_rows over [a, b], split at the kink when it lies inside,
    with the tolerance halved per piece."""
    if a < cut < b:
        return refine_one(fn, a, cut, tol / 2.0) + refine_one(fn, cut, b, tol / 2.0)
    return refine_one(fn, a, b, tol)


def test_gauss_profile_mass_closed_form():
    prof = GAUSSIAN_PROFILE
    # rho = 1, d = 0: pi (inner plateau) + 1 + 2 pi * 1/2 = 2 pi + 1
    assert prof.mass_outside(1.0, 0.0) == pytest.approx(2.0 * math.pi + 1.0, rel=1e-14)
    # generic values against direct radial quadrature with a negligible tail
    for rho, d in ((0.7, 1.3), (1.0, 0.0), (0.5, 0.2), (2.0, 6.0)):
        def integrand(r, _rho=rho):
            return np.exp(-math.pi * np.maximum(0.0, r - _rho) ** 2) * 2.0 * math.pi * r

        direct = refine_split_at(integrand, d, d + rho + 14.0, rho, 1e-11)
        assert prof.mass_outside(rho, d) == pytest.approx(direct, abs=1e-9)
    # monotone nonincreasing in d
    masses = [prof.mass_outside(1.0, float(d)) for d in np.linspace(0.0, 5.0, 21)]
    assert all(m2 <= m1 + 1e-14 for m1, m2 in zip(masses, masses[1:]))


def refine_rows_interleaving_reference(fn, a, b, tol=1e-8, max_doublings=22, min_doublings=4):
    """refine_rows as it stood while it kept every level's nodes and values,
    interleaving the midpoints into merged arrays at each halving."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros(a.shape)
    rows = np.flatnonzero(~(b <= a))
    if not rows.size:
        return out
    a, width = a[rows], b[rows] - a[rows]

    def eval_at(v):
        u = a[:, None] + width[:, None] * (1.0 - np.cos(math.pi * v)) / 2.0
        du = (width * math.pi)[:, None] * np.sin(math.pi * v) / 2.0
        return np.asarray(fn(u, rows), dtype=float) * du

    n = 8
    v = np.linspace(0.0, 1.0, n + 1)
    vals = eval_at(v)
    t_prev = np.array([np.trapezoid(row, dx=1.0 / n) for row in vals])
    r_prev = t_prev
    for level in range(1, max_doublings + 1):
        mid = (v[:-1] + v[1:]) / 2.0
        new_vals = eval_at(mid)
        t_cur = t_prev / 2.0 + np.array([np.sum(row) for row in new_vals]) / (2 * n)
        merged_v = np.empty(2 * n + 1)
        merged_v[0::2] = v
        merged_v[1::2] = mid
        merged_vals = np.empty((rows.size, 2 * n + 1))
        merged_vals[:, 0::2] = vals
        merged_vals[:, 1::2] = new_vals
        v, vals, n = merged_v, merged_vals, 2 * n
        r_cur = t_cur + (t_cur - t_prev) / 3.0
        if level >= min_doublings:
            done = np.abs(r_cur - r_prev) < tol
            if done.any():
                out[rows[done]] = r_cur[done]
                keep = ~done
                if not keep.any():
                    return out
                rows, a, width, vals = rows[keep], a[keep], width[keep], vals[keep]
                t_cur, r_cur = t_cur[keep], r_cur[keep]
        t_prev, r_prev = t_cur, r_cur
    raise QuadratureError(f"no convergence to tol={tol} after {max_doublings} doublings")


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_refine_rows_equal_the_interleaving_loop(seed):
    # seeded rows of many widths and frequencies, some flat (done at
    # min_doublings), some with b <= a; every value is hex-equal to the loop
    # that kept and interleaved all nodes, for several tolerances and first
    # levels, and the rows each fn call sees are the ones that loop still held
    rng = np.random.default_rng(seed)
    m = 24
    a = rng.uniform(-2.0, 2.0, m)
    b = a + rng.uniform(0.0, 6.0, m)
    b[rng.choice(m, 3, replace=False)] -= 7.0  # b <= a
    scale = rng.uniform(0.1, 6.0, m)
    scale[rng.choice(m, 4, replace=False)] = 0.0  # flat rows

    def rowwise(u, rows):
        s = scale[rows][:, None]
        return s * np.exp(-s * u * u) * np.cos(3.0 * s * u) + s * u

    def logged(log):
        def fn(u, rows):
            log.append(rows.tolist())
            return rowwise(u, rows)
        return fn

    for tol in (1e-6, 1e-9, 1e-12):
        for min_doublings in (0, 1, 4, 6):
            got_log, want_log = [], []
            got = refine_rows(logged(got_log), a, b, tol, min_doublings=min_doublings)
            want = refine_rows_interleaving_reference(logged(want_log), a, b, tol,
                                                      min_doublings=min_doublings)
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]
            # levels 0..min_doublings share the first call
            assert got_log == want_log[min_doublings:]
            if min_doublings == 4 and tol == 1e-6:
                assert set(got_log[0]) - set(got_log[1])  # some rows stop at level 4
    with pytest.raises(QuadratureError, match="after 3 doublings"):
        refine_rows(rowwise, a, b, 1e-9, max_doublings=3)
    with pytest.raises(QuadratureError, match="after 3 doublings"):
        refine_rows_interleaving_reference(rowwise, a, b, 1e-9, max_doublings=3)
    # a NaN bound refines, and does not converge
    for refine in (refine_rows, refine_rows_interleaving_reference):
        with pytest.raises(QuadratureError, match="no convergence"):
            refine(lambda u, rows: np.cos(u), [0.0, 0.0], [1.0, np.nan], 1e-6, max_doublings=8)
