"""Frame and Riesz bounds, relative separation, greedy covers, dimension
counts, canonical duals, and the amalgam inequality.

The finite-model oracle builds the synthesis matrix from scratch with np.roll
and explicit modulation phases, then takes singular values; the package route
goes through the assembled frame operator / Gram matrix eigensolves.
"""

import dataclasses
import math

import numpy as np
import pytest

from coherentlab import frames, groups, reps
from coherentlab.frames import (
    FrameBounds,
    finite_subset,
    full_torus,
    lattice,
)
import reference
from reference import dimension_lemma_check
from test_reps import _hermite_coefficients_reference


def synthesis_oracle(n, g, points):
    """Columns pi(k, l) g built with np.roll and explicit phases."""
    g = np.asarray(g, dtype=complex)
    cols = []
    for (k, l) in points:
        mod = np.exp(2j * math.pi * l * np.arange(n) / n)
        cols.append(mod * np.roll(g, k))
    return np.column_stack(cols)


def svd_bounds_oracle(n, g, points):
    s = np.linalg.svd(synthesis_oracle(n, g, points), compute_uv=False)
    return float(s[-1] ** 2 if len(points) >= 1 else 0.0), float(s[0] ** 2)


def scan_lattice_points(lam, cx, cy, r, closed=True):
    """Point-by-point scan of the index box around the disk, with strict
    removal of the hole about the origin: an oracle independent of the column
    ranges of PointSet."""
    thr = r * r * (1.0 + 1e-12) + 1e-12 if closed else r * r
    out = []
    for k in range(math.floor((cx - r) / lam.a) - 1, math.ceil((cx + r) / lam.a) + 2):
        x = k * lam.a
        for l in range(math.floor((cy - r) / lam.b) - 1, math.ceil((cy + r) / lam.b) + 2):
            y = l * lam.b
            d_sq = (x - cx) * (x - cx) + (y - cy) * (y - cy)
            if not (d_sq <= thr if closed else d_sq < thr):
                continue
            if x * x + y * y < lam.hole_radius * lam.hole_radius:
                continue
            out.append((x, y))
    return out


def euclid_ball(radius):
    return groups.ball(groups.euclidean_metric(dim=2), radius, closed=True)


def test_finite_frame_bounds_match_svd_oracle():
    rng = np.random.default_rng(11)
    cases = []
    for n in (4, 6, 8, 12, 16):
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if n % 2 == 0 and n >= 8:
            pts = [(k, l) for k in range(0, n, 2) for l in range(n)]
        else:
            pts = [(k, l) for k in range(n) for l in range(n)]
        cases.append((n, g, pts))
    for n, g, pts in cases:
        rep = reps.finite_weyl_heisenberg(n)
        lam = finite_subset(n, pts)
        fb = frames.finite_frame_operator_spectrum(frames.finite_synthesis(rep, g, lam))
        lo, hi = svd_bounds_oracle(n, g, pts)
        # the smallest singular value of a wide synthesis maps to A only when
        # the system spans; compare against eigen extremes of phi phi* instead
        eigs = np.linalg.eigvalsh(
            synthesis_oracle(n, g, pts) @ synthesis_oracle(n, g, pts).conj().T)
        assert fb.lower == pytest.approx(max(float(eigs[0]), 0.0), abs=1e-8)
        assert fb.upper == pytest.approx(float(eigs[-1]), abs=1e-8)
        assert fb.upper == pytest.approx(hi, abs=1e-8)


def test_full_torus_is_tight_with_bound_n():
    n = 8
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(3)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = g / np.linalg.norm(g)
    fb = frames.finite_frame_operator_spectrum(frames.finite_synthesis(rep, g, full_torus(n)))
    assert fb.kind == "frame"
    assert fb.lower == pytest.approx(float(n), abs=1e-10)
    assert fb.upper == pytest.approx(float(n), abs=1e-10)
    assert fb.condition_number == pytest.approx(1.0, abs=1e-12)


def test_single_translation_row_of_delta_is_orthonormal_basis():
    n = 4
    rep = reps.finite_weyl_heisenberg(n)
    delta = np.zeros(n, dtype=complex)
    delta[0] = 1.0
    lam = finite_subset(n, [(k, 0) for k in range(n)])
    fb = frames.finite_frame_operator_spectrum(frames.finite_synthesis(rep, delta, lam))
    assert fb.lower == pytest.approx(1.0, abs=1e-12)
    assert fb.upper == pytest.approx(1.0, abs=1e-12)
    # modulation-only row of the delta collapses to one repeated vector
    mod_row = finite_subset(n, [(0, l) for l in range(n)])
    fb2 = frames.finite_frame_operator_spectrum(frames.finite_synthesis(rep, delta, mod_row))
    assert fb2.kind == "bessel" and fb2.lower == 0.0
    assert fb2.upper == pytest.approx(float(n), abs=1e-12)
    assert fb2.condition_number is None


def test_gram_and_frame_operator_share_nonzero_spectrum():
    n = 6
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(8)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    pts = [(0, 0), (1, 2), (3, 3), (5, 1)]
    lam = finite_subset(n, pts)
    phi = frames.finite_synthesis(rep, g, lam)
    fb = frames.finite_frame_operator_spectrum(phi)
    rb = frames.finite_riesz_bounds(phi)
    # 4 vectors in C^6: Gram eigenvalues are the nonzero frame-operator ones
    assert rb.upper == pytest.approx(fb.upper, abs=1e-10)
    nonzero = [e for e in fb.spectrum if e > 1e-10]
    assert len(nonzero) == 4
    assert rb.lower == pytest.approx(min(nonzero), abs=1e-10)
    assert rb.kind == "riesz"


def test_wide_riesz_bounds_match_the_brute_gram():
    # more points than dimensions: the Gram is singular, so A = 0 and B is
    # read from the N x N frame operator; the |Lambda| x |Lambda| Gram
    # diagonalised directly agrees to 1e-12 relative.  The full torus is a
    # tight frame and even_shifts has a repeated top eigenvalue, so a random
    # 20-point subset of Z_6^2 gives a simple one.  A square synthesis
    # (single_row) stays on the Gram path
    rng = np.random.default_rng(40)
    some = np.zeros(36, dtype=bool)
    some[rng.choice(36, 20, replace=False)] = True
    for n, lam in ((6, full_torus(6)),
                   (8, finite_subset(8, [(k, l) for k in range(0, 8, 2) for l in range(8)])),
                   (6, some.reshape(6, 6))):
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi = frames.finite_synthesis(reps.finite_weyl_heisenberg(n), g, lam)
        assert phi.shape[1] > n
        rb = frames.finite_riesz_bounds(phi)
        gram = phi.conj().T @ phi
        brute = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
        assert (rb.lower, rb.kind, rb.method, rb.gram) == (0.0, "bessel", "exact_spectrum", None)
        assert abs(max(float(brute[0]), 0.0)) <= 1e-12 * rb.upper
        assert rb.upper == pytest.approx(float(brute[-1]), rel=1e-12)
        assert rb.upper == frames.finite_frame_operator_spectrum(phi).upper
    n = 8
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    phi = frames.finite_synthesis(reps.finite_weyl_heisenberg(n), g,
                                  finite_subset(n, [(k, 0) for k in range(n)]))
    rb = frames.finite_riesz_bounds(phi)
    assert rb.kind == "riesz" and rb.gram.shape == (n, n)
    brute = np.linalg.eigvalsh(phi.conj().T @ phi)
    assert rb.lower == pytest.approx(float(brute[0]), rel=1e-12)
    assert rb.upper == pytest.approx(float(brute[-1]), rel=1e-12)


def test_riesz_bounds_translation_covariance_on_explicit_sets():
    def gram_eigs(pts):
        gram = np.array([[frames.gabor_gram_entry(mu, nu) for nu in pts] for mu in pts])
        return np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)

    base = [(0.0, 0.0), (0.7, 0.3), (1.4, -0.5), (-0.9, 1.1)]
    eigs = gram_eigs(base)
    eigs2 = gram_eigs([(x + 2.25, y - 1.5) for (x, y) in base])
    # Gram matrices differ by a diagonal unitary: identical spectra
    assert eigs2[0] == pytest.approx(eigs[0], rel=1e-10)
    assert eigs2[-1] == pytest.approx(eigs[-1], rel=1e-10)


def test_gabor_gram_entry_matches_dense_quadrature():
    t = np.linspace(-10.0, 10.0, 80001)

    def pi_g(x, w):
        return 2.0 ** 0.25 * np.exp(-math.pi * (t - x) ** 2) \
            * np.exp(2j * math.pi * w * t)

    for mu, nu in (((0.5, 0.5), (0.0, 0.0)), ((1.0, -0.5), (0.25, 0.75)),
                   ((0.0, 2.0), (0.0, 0.0))):
        direct = np.trapezoid(pi_g(*nu) * np.conj(pi_g(*mu)), t)
        assert frames.gabor_gram_entry(mu, nu) == pytest.approx(direct, abs=1e-10)


def test_gaussian_section_bounds_on_half_integer_lattice():
    fb = frames.frame_operator_spectrum(lattice(0.5, 0.5),
                                        section_radius=12.0, margin=3.0)
    # redundancy-4 lattice: section eigenvalues concentrate near 4
    assert fb.lower == pytest.approx(3.97190876174, rel=1e-9)
    assert fb.upper == pytest.approx(4.02816836632, rel=1e-9)
    assert fb.kind == "frame"
    assert fb.method.startswith("truncated_section")
    with pytest.raises(ValueError):
        frames.frame_operator_spectrum(lattice(0.5, 0.5),
                                       section_radius=3.0, margin=3.0)


def test_gaussian_lattice_with_ab_at_least_one_is_no_frame():
    # Lyubarskii; Seip-Wallsten: the Gaussian is a frame on aZ x bZ iff ab < 1.
    # The truncated section alone sees A = 0.0188 on Z^2 at R = 12.
    for lam in (lattice(1.0, 1.0), lattice(1.0488, 1.0488),
                lattice(1.0, 1.0, hole_radius=2.0)):
        fb = frames.frame_operator_spectrum(lam)
        assert fb.kind == "bessel" and fb.lower == 0.0
        assert "admits no Gaussian frame" in fb.method
        # B stays the section's largest eigenvalue
        assert fb.upper == float(fb.spectrum[-1])
    assert frames.frame_operator_spectrum(lattice(0.99, 1.0)).kind == "frame"


def test_section_mode_count():
    assert frames.section_mode_count(12.0, 3.0) == min(512, int(math.pi * 81))
    assert frames.section_mode_count(30.0, 3.0) == 512


def test_section_method_names_the_mode_cap_when_it_cuts():
    lam = lattice(3.0, 3.0)  # few points: the cost is in the Hermite modes
    # ab = 9 >= 1 is no Gaussian frame, and the label says why A = 0
    no_frame = "; A=0: ab=9 >= 1 admits no Gaussian frame"
    # pi 9^2 = 254 modes fit under the cap: the section label is unchanged
    fb = frames.frame_operator_spectrum(lam, section_radius=12.0, margin=3.0)
    assert fb.method == "truncated_section(R=12, margin=3)" + no_frame
    # pi 13^2 = 530.9: 512 of 530 resolved modes are kept
    fb = frames.frame_operator_spectrum(lam, section_radius=16.0, margin=3.0)
    assert fb.method == "truncated_section(R=16, margin=3, modes=512/530)" + no_frame


def _section_cases(seed: int = 31, count: int = 12) -> list:
    """(a, b, hole_radius): two fixed cases, then seeded random ones; every
    other random hole radius passes through the lattice point (k a, l b)."""
    rng = np.random.default_rng(seed)
    cases = [(0.45, 0.6, 0.0), (0.6, 0.4, 2.0)]
    for i in range(count):
        a, b = (round(float(v), 4) for v in rng.uniform(0.35, 0.9, 2))
        k, l = (int(v) for v in rng.integers(1, 4, 2))
        cases.append((a, b, math.hypot(k * a, l * b) if i % 2 else float(rng.uniform(0.0, 3.0))))
    return cases


@pytest.mark.parametrize("a, b, hole_radius", _section_cases(), ids=lambda v: f"{v:g}")
def test_section_spectrum_matches_one_complex_product(monkeypatch, a, b, hole_radius):
    # every section, a disk of a Z x b Z about the origin minus the hole about
    # the origin, is invariant under z -> -z and z -> conj(z), so it takes two
    # real blocks (even and odd modes) whose spectrum is that of one complex
    # product; where the hole's circle passes through lattice points, the
    # strict removal keeps them in every orbit alike
    lam = frames.lattice(a, b, hole_radius)
    p = np.asarray(lam.restrict(euclid_ball(7.0)))  # lexicographic
    conj = p * (1.0, -1.0)
    assert np.array_equal(p, -p[::-1])
    assert np.array_equal(p, conj[np.lexsort((conj[:, 1], conj[:, 0]))])
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(mat):
        calls.append(mat.dtype.kind)
        return eigvalsh(mat)

    monkeypatch.setattr(frames.np.linalg, "eigvalsh", spy)
    fb = frames.frame_operator_spectrum(lam, section_radius=7.0, margin=3.0)
    monkeypatch.undo()
    assert calls == ["f", "f"]
    _assert_section_is_one_product(fb, lam, 7.0, reps.hermite_gabor_coefficients)


def test_section_spectrum_past_the_underflow_radius_matches_the_log_form_product(monkeypatch):
    # at section radius 22 the outer points lie past |z| ~ 21.2, where the
    # recurrence's row 0 underflows; the product is of the log-form entries
    lam = frames.lattice(0.9, 0.8)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(mat):
        calls.append(mat.dtype.kind)
        return eigvalsh(mat)

    monkeypatch.setattr(frames.np.linalg, "eigvalsh", spy)
    fb = frames.frame_operator_spectrum(lam, section_radius=22.0, margin=3.0)
    monkeypatch.undo()
    assert calls == ["f", "f"]
    _assert_section_is_one_product(fb, lam, 22.0, _hermite_coefficients_reference)


def _assert_section_is_one_product(fb, lam, radius, coefficients):
    """fb's spectrum is that of C C^H over the closed disk of this radius."""
    pts = lam.restrict(groups.ball(groups.euclidean_metric(dim=2), radius, closed=True))
    coeff = coefficients(frames.section_mode_count(radius, 3.0), np.asarray(pts, dtype=float))
    want = np.linalg.eigvalsh(coeff @ coeff.conj().T)
    assert fb.spectrum.shape == want.shape
    assert np.all(np.diff(fb.spectrum) >= 0.0)
    assert np.max(np.abs(fb.spectrum - want)) <= 1e-12 * fb.upper
    assert fb.upper == fb.spectrum[-1]


def test_relative_separation_exact_lattice_values():
    assert frames.relative_separation(lattice(0.5, 0.5), euclid_ball(0.6)).rel_sep == 6
    assert frames.relative_separation(lattice(1.0, 1.0), euclid_ball(0.4)).rel_sep == 1
    assert frames.relative_separation(lattice(1.0, 1.0), euclid_ball(1.0)).rel_sep == 5
    # sampled lower-bound oracle: max count over a dense grid of centers never
    # exceeds the exact arrangement value and attains it somewhere
    for a, rho, expect in ((0.5, 0.6, 6), (1.0, 1.0, 5)):
        lam = lattice(a, a)
        best = 0
        for cx in np.linspace(0.0, a, 41):
            for cy in np.linspace(0.0, a, 41):
                best = max(best, len(lam.lattice_points_near(
                    float(cx), float(cy), rho, closed=True)))
        assert best == expect


def test_relative_separation_holes_report_full_lattice_sup():
    lam = lattice(1.0, 1.0, hole_radius=2.0)
    rep = frames.relative_separation(lam, euclid_ball(1.0))
    assert rep.rel_sep == 5  # sup over all centers is away from the hole


def test_relative_separation_explicit_and_finite():
    n = 8
    lam = finite_subset(n, [(0, 0), (1, 0), (0, 1), (4, 4)])
    sep = frames.finite_relative_separation(lam, 1.0)
    assert sep.rel_sep == 3  # identity ball of radius 1 catches the cluster


def test_lemma_cover_constant_gaussian_frozen_counts():
    for rho, expect in ((0.6, 3), (1.0, 9), (1.25, 9), (2.0, 25), (3.0, 57)):
        cover = frames.lemma_cover_constant(euclid_ball(rho))
        assert cover.n_cover == expect
        assert cover.constant == pytest.approx(4.0 * expect)
        assert cover.certified
        # half-width of the level set {|V_g g| > ||g||^2 / 2}
        assert cover.u_radius == pytest.approx(
            math.sqrt(2.0 * math.log(2.0) / math.pi), abs=1e-9)
        # independent cover-property audit: every point of a fine grid of the
        # disk lies strictly inside some chosen level-set disk
        u = cover.u_radius
        xs = np.linspace(-rho, rho, 161)
        xx, yy = np.meshgrid(xs, xs)
        disk = xx * xx + yy * yy <= rho * rho
        nearest = np.full(xx.shape, np.inf)
        for cx, cy in cover.centers:
            nearest = np.minimum(nearest, np.hypot(xx - cx, yy - cy))
        assert np.all(nearest[disk] < u)


def test_cover_matrix_from_squared_distances_matches_hypot(monkeypatch):
    # reach / cell lies far from every grid distance sqrt(m^2 + n^2), so the
    # squared comparison decides every (candidate, cell) pair as hypot does.
    # The reference is the hypot matrix as first written, on the grid points
    # of the largest disk; a smaller disk keeps those within its radius, in
    # the same order, so its matrix is a submatrix
    u = reps.GAUSSIAN_PROFILE.level_radius
    cell = u / 8.0
    half_diag = cell * math.sqrt(2.0) / 2.0
    reach = u - half_diag - 1e-9
    n_cells = int(math.ceil((4.0 + cell) / cell))
    cells = [(i * cell, j * cell)
             for i in range(-n_cells, n_cells + 1) for j in range(-n_cells, n_cells + 1)]
    n_grid = int(math.ceil((4.0 + u) / (u / 2.0)))
    cand = sorted((i * u / 2.0, j * u / 2.0)
                  for i in range(-n_grid, n_grid + 1) for j in range(-n_grid, n_grid + 1))
    cell_r = np.array([math.hypot(x, y) for x, y in cells])
    cand_r = np.array([math.hypot(x, y) for x, y in cand])
    cx, cy = np.array(cells).T[:, cell_r <= 4.0 + half_diag]
    gx, gy = np.array(cand).T[:, cand_r <= 4.0 + u]
    full = np.vstack([np.hypot(cx[None, :] - gx[k:k + 64, None],
                               cy[None, :] - gy[k:k + 64, None]) <= reach
                      for k in range(0, len(gx), 64)])
    cell_r, cand_r = cell_r[cell_r <= 4.0 + half_diag], cand_r[cand_r <= 4.0 + u]
    seen = []
    monkeypatch.setattr(frames, "_greedy_cover", lambda covers: seen.append(covers) or [])
    for rho in np.linspace(0.05, 4.0, 400):
        frames._greedy_cover_disk(float(rho), u)
        want = full[np.ix_(cand_r <= rho + u, cell_r <= rho + half_diag)]
        assert np.array_equal(seen.pop(), want), rho


def test_greedy_cover_takes_the_first_row_of_largest_gain():
    # reference: a set-based loop in which the first row with the most
    # uncovered targets wins; small 0/1 matrices make ties frequent
    rng = np.random.default_rng(5)
    for _ in range(300):
        covers = rng.random((rng.integers(1, 12), rng.integers(1, 30))) < 0.3
        covers[rng.integers(len(covers), size=covers.shape[1]),
               np.arange(covers.shape[1])] = True  # every target coverable
        rows = [set(np.flatnonzero(row)) for row in covers]
        uncovered, want = set(range(covers.shape[1])), []
        while uncovered:
            gains = [len(uncovered & row) for row in rows]
            want.append(gains.index(max(gains)))
            uncovered -= rows[want[-1]]
        assert frames._greedy_cover(covers) == want
    with pytest.raises(ValueError, match="stalled"):
        frames._greedy_cover(np.array([[True, False], [True, False]]))


def greedy_cover_recount_reference(covers):
    """The greedy cover as first written: every step recounts each row's
    uncovered targets."""
    uncovered = np.ones(covers.shape[1], dtype=bool)
    chosen = []
    while uncovered.any():
        gains = np.count_nonzero(covers & uncovered, axis=1)
        best = int(np.argmax(gains))
        if gains[best] == 0:
            raise ValueError("greedy cover stalled: no candidate covers what is left")
        chosen.append(best)
        uncovered &= ~covers[best]
    return chosen


def greedy_cover_disk_reference(rho, u):
    """The disk cover as first written: list-comprehension grids tested with
    math.hypot, sorted candidates, and the recounting greedy loop."""
    cell = u / 8.0
    half_diag = cell * math.sqrt(2.0) / 2.0
    n_cells = int(math.ceil((rho + cell) / cell))
    cells = [(i * cell, j * cell)
             for i in range(-n_cells, n_cells + 1)
             for j in range(-n_cells, n_cells + 1)
             if math.hypot(i * cell, j * cell) <= rho + half_diag]
    n_grid = int(math.ceil((rho + u) / (u / 2.0)))
    cand = sorted((i * u / 2.0, j * u / 2.0)
                  for i in range(-n_grid, n_grid + 1)
                  for j in range(-n_grid, n_grid + 1)
                  if math.hypot(i * u / 2.0, j * u / 2.0) <= rho + u)
    reach = u - half_diag - 1e-9
    covers = np.array([[math.hypot(cx - gx, cy - gy) <= reach for cx, cy in cells]
                       for gx, gy in cand], dtype=bool)
    return [cand[i] for i in greedy_cover_recount_reference(covers)], cell


def test_cover_centres_equal_the_recounting_greedy(monkeypatch):
    # the gain-updating greedy over array-built grids picks the same centres,
    # in the same order, as the recounting loop over the hypot-tested lists
    u = reps.GAUSSIAN_PROFILE.level_radius
    for rho in (0.5, 0.6, 1.0, 1.25, 2.0, 3.0):
        cover = frames.lemma_cover_constant(euclid_ball(rho))
        centers, cell = greedy_cover_disk_reference(rho, u)
        assert cover.centers == tuple(centers), rho
        assert cover.cell_size == cell and cover.u_radius == u
    # on the torus: the finite model's candidate x target matrix, through
    # finite_lemma_cover_constant and against the recounting loop on the same
    # matrix
    seen, greedy = [], frames._greedy_cover
    monkeypatch.setattr(frames, "_greedy_cover",
                        lambda covers: seen.append(covers) or greedy(covers))
    for n, radius, seed in ((8, 1.0, 6), (9, 2.0, 1), (12, 3.0, 2), (7, 20.0, 3)):
        rep = reps.finite_weyl_heisenberg(n)
        g = np.random.default_rng(seed).standard_normal(n) + 0j
        cover = frames.finite_lemma_cover_constant(rep, g, radius)
        cand = [(k, l) for k in range(n) for l in range(n)]
        want = greedy_cover_recount_reference(seen.pop())
        assert cover.centers == tuple(cand[i] for i in want)


def test_grid_in_disk_decides_the_rim_as_hypot_does():
    # radii on (or one float off) a grid point's distance, where x^2 + y^2
    # against radius^2 and math.hypot against the radius can disagree: the
    # cover's grids keep exactly the points the hypot test keeps, i-major
    u = reps.GAUSSIAN_PROFILE.level_radius
    for spacing in (u / 8.0, u / 2.0, 0.1, 1.0 / 3.0, 0.7):
        for i, j in ((5, 0), (3, 4), (7, 24), (15, 20), (1, 1), (2, 3), (6, 9), (5, 12)):
            rim = math.hypot(i * spacing, j * spacing)
            for radius in (math.nextafter(rim, 0.0), rim, math.nextafter(rim, math.inf)):
                n = math.ceil(radius / spacing) + 1
                x, y = frames._grid_in_disk(spacing, n, radius)
                want = [(k * spacing, l * spacing)
                        for k in range(-n, n + 1) for l in range(-n, n + 1)
                        if math.hypot(k * spacing, l * spacing) <= radius]
                assert list(zip(x.tolist(), y.tolist())) == want, (spacing, i, j)


def test_lemma_cover_constant_finite_property():
    n = 8
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(6)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cover = frames.finite_lemma_cover_constant(rep, g, 1.0)
    table = np.abs(reps.coefficient_table(rep, g, g))
    level = float(np.linalg.norm(g)) ** 2 / 2.0
    for tpt in map(tuple, np.argwhere(reps.torus_ball(n, 1.0)).tolist()):
        assert any(table[(tpt[0] - x[0]) % n, (tpt[1] - x[1]) % n] > level
                   for x in cover.centers)


def test_finite_checks_match_the_tuple_oracles():
    # the finite separation, cover and amalgam checks on masks against their
    # tuple forms: a scan of the translates of Q, the cover matrix built as
    # lists, and KQ as a set.  Random subsets of Z_N x Z_N, with Q and K radii
    # out past the torus diameter.  Only the amalgam right side sums in
    # another order, so it is held to 1e-12 relative
    rng = np.random.default_rng(30)
    for case in range(60):
        n = int(rng.integers(2, 17))
        q_radius, k_radius = (float(r) for r in rng.integers(0, 41, 2))
        keep = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        lam = finite_subset(n, [tuple(p) for p in np.argwhere(keep).tolist()])
        rep = reps.finite_weyl_heisenberg(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        where = (case, n, q_radius, k_radius)
        sep = frames.finite_relative_separation(lam, q_radius)
        assert (sep.rel_sep, sep.witness, sep.n_candidates) == reference.finite_relative_separation(
            lam, q_radius), where
        cover = frames.finite_lemma_cover_constant(rep, g, q_radius)
        assert cover.centers == reference.finite_cover_centres(rep, g, q_radius), where
        out = frames.finite_amalgam_check(rep, g, lam, q_radius, k_radius)
        lhs, rhs = reference.finite_amalgam_sides(rep, g, lam, q_radius, k_radius)
        assert out["lhs"] == lhs and out["rhs"] == pytest.approx(rhs, rel=1e-12), where


def test_bessel_separation_bound_gaussian_and_scale_invariance():
    out = frames.bessel_separation_bound(lattice(0.5, 0.5), euclid_ball(0.6))
    assert out["passed"]
    assert out["rel_sep"] == 6
    assert out["n_cover"] == 3
    assert out["scale_invariant"]
    assert out["bound"] == pytest.approx(
        out["cover_constant"] * out["bessel_bound"], rel=1e-12)
    assert out["rel_sep"] <= out["bound"]


def test_bessel_separation_bound_finite_scale_invariance():
    n = 8
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(12)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lam = finite_subset(n, [(k, l) for k in range(0, n, 2) for l in range(0, n, 2)])
    out = frames.finite_bessel_separation_bound(rep, g, lam, 1.0)
    out2 = frames.finite_bessel_separation_bound(
        rep, 2.0 * g, lam, 1.0,
        bessel_bound=4.0 * out["bessel_bound"])
    assert out["passed"] and out2["passed"]
    assert out2["n_cover"] == out["n_cover"]
    assert out2["bound"] == pytest.approx(out["bound"], rel=1e-9)
    assert out["scale_invariant"] and out2["scale_invariant"]


def test_dimension_lemma_exhaustive_dims():
    n = 8
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(21)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    qmat, _ = np.linalg.qr(raw)
    for dim in (0, 1, 3, 8):
        basis = [qmat[:, j] for j in range(dim)]
        out = dimension_lemma_check(rep, g, basis)
        assert out["passed"]
        assert out["dim"] == dim
        assert out["rhs"] == pytest.approx(n * np.linalg.norm(g) ** 2 * dim)
        assert out["deviation"] <= 1e-8 * max(1.0, out["rhs"])
    with pytest.raises(ValueError):
        dimension_lemma_check(rep, g, [qmat[:, 0] * 2.0])


def test_canonical_dual_tight_case_and_reconstruction():
    n = 8
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(14)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lam = full_torus(n)
    report = frames.canonical_dual(frames.finite_synthesis(rep, g, lam), seed=5)
    assert report.passed
    assert report.reconstruction_error <= 1e-8
    # tight frame: S = N ||g||^2 I, so duals are scaled originals
    scale = 1.0 / (n * float(np.linalg.norm(g)) ** 2)
    for x, d in zip([(k, l) for k in range(n) for l in range(n)], report.dual_vectors):
        assert np.allclose(d, scale * reps.apply_rep(rep, x, g), atol=1e-10)
    assert report.dual_bounds.lower == pytest.approx(1.0 / report.bounds.upper,
                                                     abs=1e-10)
    assert report.dual_bounds.upper == pytest.approx(1.0 / report.bounds.lower,
                                                     abs=1e-10)
    delta = np.zeros(4, dtype=complex)
    delta[0] = 1.0
    with pytest.raises(ValueError):
        frames.canonical_dual(frames.finite_synthesis(
            reps.finite_weyl_heisenberg(4), delta, finite_subset(4, [(0, l) for l in range(4)])))


def test_canonical_dual_generic_subset():
    n = 8
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(17)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lam = finite_subset(n, [(k, l) for k in range(n) for l in range(0, n, 2)])
    report = frames.canonical_dual(frames.finite_synthesis(rep, g, lam), seed=2, trials=6)
    assert report.passed and report.reconstruction_error <= 1e-8
    assert report.bounds.kind == "frame"


def test_amalgam_check_finite_and_gaussian():
    n = 8
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(19)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lam = finite_subset(n, [(k, l) for k in range(0, n, 2) for l in range(0, n, 2)])
    out = frames.finite_amalgam_check(rep, g, lam, 1.0, k_radius=3.0)
    assert out["passed"] and out["lhs"] <= out["rhs"]
    gout = frames.amalgam_check(lattice(0.5, 0.5), euclid_ball(0.6), k_radius=4.0)
    assert gout["passed"]
    assert gout["mu_q"] == pytest.approx(math.pi * 0.36, rel=1e-12)
    assert gout["rel_sep"] == 6
    # oracle for the right side: Rel/mu(Q) * integral over the disk of radius
    # k + rho of the squared maximal profile, by midpoint rings
    r_edges = np.linspace(0.0, 4.6, 20001)
    mids = (r_edges[:-1] + r_edges[1:]) / 2.0
    prof_sq = np.exp(-math.pi * np.maximum(0.0, mids - 0.6) ** 2)
    integral = float(np.sum(prof_sq * 2.0 * math.pi * mids) * (r_edges[1] - r_edges[0]))
    assert gout["rhs"] == pytest.approx(6.0 / (math.pi * 0.36) * integral, rel=1e-4)


def test_frame_bounds_validation_and_errors():
    with pytest.raises(ValueError):
        FrameBounds(2.0, 1.0, "frame", "exact_spectrum")
    fb = FrameBounds(0.0, 3.0, "bessel", "exact_spectrum")
    assert fb.condition_number is None
    assert fb.to_json()["A"] == 0.0
    with pytest.raises(ValueError):
        frames.riesz_bounds(lattice(1.0, 1.0))  # needs restriction radius
    with pytest.raises(ValueError):  # the hole swallows the whole restriction
        frames.riesz_bounds(lattice(1.0, 1.0, hole_radius=5.0), restriction_radius=3.0)
    n = 8
    frep = reps.finite_weyl_heisenberg(n)
    with pytest.raises(ValueError):
        frames.finite_synthesis(frep, np.ones(4), full_torus(n))
    # the torus Lambda is a bool (N, N) mask over the model's own modulus
    for bad in (full_torus(4), np.ones((n, n), dtype=int), np.ones((n, n + 1), dtype=bool),
                [[True] * n] * n):
        for check in (lambda lam: frames.finite_synthesis(frep, np.ones(n), lam),
                      lambda lam: frames.finite_amalgam_check(frep, np.ones(n), lam, 1.0, 1.0),
                      lambda lam: frames.finite_bessel_separation_bound(frep, np.ones(n), lam, 1.0)):
            with pytest.raises(ValueError, match="finite_subset"):
                check(bad)
    with pytest.raises(ValueError, match="finite_subset"):
        frames.finite_relative_separation(np.ones((n, n), dtype=int), 1.0)
    with pytest.raises(ValueError, match="empty"):
        frames.finite_synthesis(frep, np.ones(n), np.zeros((n, n), dtype=bool))


def test_riesz_gram_diagonal_is_the_coefficient_at_zero():
    # the diagonal ||g||^2 is gabor_gram_entry at a zero shift, so the Gram
    # equals the one gabor_gram_entry builds entry by entry
    lam = lattice(1.0, 0.5)
    pts = lam.restrict(euclid_ball(1.0))
    assert len(pts) == 7
    gram = np.array([[frames.gabor_gram_entry(mu, nu) for nu in pts] for mu in pts])
    assert np.all(np.diag(gram) == 1.0)
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    rb = frames.riesz_bounds(lam, restriction_radius=1.0)
    assert rb.lower == pytest.approx(eigs[0], rel=1e-12)
    assert rb.upper == pytest.approx(eigs[-1], rel=1e-12)
    # one point: the Gram is V_g g(0) = ||g||^2 = 1
    one = lattice(1.0, 1.0)
    assert frames.riesz_bounds(one, restriction_radius=0.5).upper == 1.0


def test_continuous_ball_restricts_lattice_kinds_only():
    # Z_N^2 indices are not time-frequency points: reading them as such gave
    # the Gaussian a Riesz sequence on full_torus(4).  The torus Lambda is a
    # mask, not a PointSet, so it has no disk to restrict, and the finite
    # model refuses a lattice
    torus = full_torus(4)
    assert torus.dtype == bool and torus.shape == (4, 4) and torus.all()
    assert not hasattr(torus, "restrict")
    with pytest.raises(AttributeError):
        frames.riesz_bounds(torus, restriction_radius=6.0)
    with pytest.raises(AttributeError):
        frames.frame_operator_spectrum(torus)
    with pytest.raises(ValueError):
        frames.riesz_bounds(torus)
    with pytest.raises(ValueError, match="finite_subset"):
        frames.finite_synthesis(reps.finite_weyl_heisenberg(4), np.ones(4), lattice(1.0, 1.0))


def test_riesz_bounds_on_sparse_lattice_restriction():
    rb = frames.riesz_bounds(lattice(2.0, 1.0), restriction_radius=8.0)
    assert rb.kind == "riesz"
    assert rb.lower == pytest.approx(0.593, abs=2e-3)
    assert rb.upper == pytest.approx(1.416, abs=2e-3)
    assert "restriction_radius=8" in rb.method


def test_dump_matrix_csv_roundtrip(tmp_path):
    mat = np.array([[1.0 + 2.0j, 0.0], [3.5, -1.0j]])
    path = tmp_path / "mat.csv"
    frames.dump_matrix_csv(mat, str(path))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "row,col,real,imag"
    assert len(rows) == 5
    parsed = np.zeros((2, 2), dtype=complex)
    for line in rows[1:]:
        i, j, re, im = line.split(",")
        parsed[int(i), int(j)] = complex(float(re), float(im))
    assert np.allclose(parsed, mat)


def test_point_set_geometry_helpers():
    assert [f.name for f in dataclasses.fields(frames.PointSet)] == ["a", "b", "hole_radius"]
    lam = lattice(0.5, 0.5)
    assert lam.covolume == pytest.approx(0.25)
    assert lam.hole_radius == 0.0
    inside = lam.restrict(euclid_ball(1.0))
    assert (0.0, 0.0) in inside and (0.5, 0.5) in inside
    assert all(x * x + y * y <= 1.0 + 1e-9 for (x, y) in inside)
    holey = lattice(1.0, 1.0, hole_radius=1.5)
    pts = holey.restrict(euclid_ball(3.0))
    assert (0.0, 0.0) not in pts and (1.0, 0.0) not in pts
    assert (2.0, 0.0) in pts
    # removal is strict: the points on the hole's circle stay
    assert (1.0, 0.0) in lattice(1.0, 1.0, hole_radius=1.0).restrict(euclid_ball(3.0))
    with pytest.raises(ValueError):
        lattice(0.0, 1.0)
    with pytest.raises(ValueError, match="hole radius"):
        lattice(1.0, 1.0, hole_radius=-1.0)
    # a NaN or infinite spacing or hole radius is refused by name, before
    # any array code warns or an empty section is found later
    for args, name in (((math.nan, 0.5), "lattice a"), ((0.5, math.inf), "lattice b"),
                       ((math.inf, 0.5), "lattice a"), ((0.5, 0.5, math.nan), "hole_radius"),
                       ((0.5, 0.5, math.inf), "hole_radius")):
        with pytest.raises(ValueError, match=name):
            lattice(*args)
    with pytest.raises(ValueError):
        finite_subset(1, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        finite_subset(4, [(1, 2), (5, -2)])
    # the torus Lambda is the mask of its points, read mod N
    mask = finite_subset(4, [(1, 2), (-1, 0)])
    assert mask.dtype == bool and mask.shape == (4, 4)
    assert np.argwhere(mask).tolist() == [[1, 2], [3, 0]]


def test_lattice_count_near_matches_enumeration():
    rng = np.random.default_rng(20240717)
    spacings = [(0.5, 0.5), (1.0, 1.0), (0.25, 0.25), (0.5, 1.0),
                (0.4807, 0.25 / 0.4807), (0.5193, 0.25 / 0.5193), (0.37, 1.3)]
    cases = []
    for a, b in spacings:
        lam = lattice(a, b)
        for _ in range(40):
            r = float(rng.choice([0.0, 6.0, 10.0, 28.0, rng.uniform(0.0, 15.0),
                                  rng.uniform(0.0, 0.7)]))
            which = rng.integers(3)
            if which == 0:  # the a/8 centre grid of beurling_density
                cx, cy = rng.integers(-16, 17) * a / 8.0, rng.integers(-16, 17) * b / 8.0
            elif which == 1:
                cx, cy = rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)
            else:
                cx, cy = -rng.uniform(0.0, 5.0), -rng.uniform(0.0, 5.0)
            cases.append((lam, float(cx), float(cy), r))
            # a radius through a lattice point: the tie slack decides it
            k, l = rng.integers(-40, 41, size=2)
            cases.append((lam, float(cx), float(cy),
                           math.hypot(k * a - float(cx), l * b - float(cy))))
    half = lattice(0.5, 0.5)
    # (6, 8) and (8, 6) lie on the radius-10 circle about the origin, and the
    # origin lies on the radius-10 circles about them
    cases += [(half, 0.0, 0.0, 10.0), (half, 6.0, 8.0, 10.0), (half, 8.0, 6.0, 10.0),
              (half, -6.0, -8.0, 10.0), (half, 0.0, 0.0, 5.0)]
    for lam, cx, cy, r in cases:
        want = scan_lattice_points(lam, cx, cy, r)
        assert lam.lattice_count_near(cx, cy, r) == len(want), (lam.a, lam.b, cx, cy, r)
        assert lam.lattice_points_near(cx, cy, r) == want, (lam.a, lam.b, cx, cy, r)
    # 12 points sit on that circle: (+-6, +-8), (+-8, +-6), (+-10, 0), (0, +-10)
    assert half.lattice_count_near(0.0, 0.0, 10.0) \
        == 12 + len(scan_lattice_points(half, 0.0, 0.0, 10.0 - 1e-9))
    # only plain lattices with closed balls take the closed form
    with pytest.raises(ValueError, match="hole_radius"):
        lattice(0.5, 0.5, hole_radius=2.0).lattice_count_near(0.0, 0.0, 6.0)


def test_lattice_count_near_on_arrays_matches_scalar_and_scan(monkeypatch):
    rng = np.random.default_rng(5)
    # a != b, random centres in one cell, radii that put lattice points on
    # the circle; on Z^2 the 3-4-5 points lie on the radius-5 circle about
    # every lattice point
    cases = [(lattice(0.4807, 0.25 / 0.4807), 6.0), (lattice(0.37, 1.3), 4.25),
             (lattice(1.0, 1.0), 5.0)]
    for lam, r in cases:
        cx = rng.uniform(0.0, lam.a, 40)
        cy = rng.uniform(0.0, lam.b, 40)
        if lam.a == 1.0:
            cx[:8], cy[:8] = [0, 3, 4, -3, 1, 0, 2, 5], [0, 4, 3, 4, 2, 1, 0, 5]
        want = [len(scan_lattice_points(lam, x, y, r)) for x, y in zip(cx, cy)]
        scalar = [lam.lattice_count_near(float(x), float(y), r) for x, y in zip(cx, cy)]
        assert all(isinstance(c, int) for c in scalar)
        assert scalar == want, (lam.a, lam.b, r)
        got = lam.lattice_count_near(cx, cy, r)
        assert got.dtype == np.int64 and got.tolist() == want, (lam.a, lam.b, r)
        # 64 cells hold a handful of centres: many blocks and a partial last one
        with monkeypatch.context() as m:
            m.setattr(frames, "_BLOCK_CELLS", 64)
            assert lam.lattice_count_near(cx, cy, r).tolist() == want, (lam.a, lam.b, r)
    z2 = lattice(1.0, 1.0)
    # the 12 points (+-3, +-4), (+-4, +-3), (+-5, 0), (0, +-5) sit on the circle
    assert z2.lattice_count_near(np.zeros(3), np.zeros(3), 5.0).tolist() == [81] * 3
    assert z2.lattice_count_near(np.zeros(0), np.zeros(0), 5.0).tolist() == []


def test_relative_separation_matches_a_per_candidate_loop():
    lam = lattice(0.5, 0.5)
    for rho in (1.0, 2.0):
        sep = frames.relative_separation(lam, euclid_ball(rho))
        window = lam.lattice_points_near(0.25, 0.25, rho + math.hypot(0.5, 0.5))
        cands = [c for c in frames._disk_candidates(window, rho)
                 if -0.5 <= c[0] <= 1.0 and -0.5 <= c[1] <= 1.0]
        best, witness = 0, cands[0]
        for c in cands:
            n = len(scan_lattice_points(lam, c[0], c[1], rho))
            if n > best:
                best, witness = n, c
        assert (sep.rel_sep, sep.witness, sep.n_candidates) == (best, witness, len(cands))


def test_count_points_on_holes_and_open_balls_matches_enumeration():
    em = groups.euclidean_metric(dim=2)
    holey = lattice(0.5, 0.5, hole_radius=2.0)
    for lam in (holey, lattice(0.5, 0.5)):
        for closed in (True, False):
            want = scan_lattice_points(lam, 0.0, 0.0, 5.0, closed=closed)
            assert lam.restrict(groups.ball(em, 5.0, closed=closed)) == tuple(sorted(want))
            for center in ((0.0, 0.0), (1.5, 0.5), (0.3125, -0.25)):
                want = scan_lattice_points(lam, *center, 5.0, closed=closed)
                assert lam.lattice_points_near(*center, 5.0, closed) == want
                if closed and not lam.hole_radius:
                    assert lam.lattice_count_near(*center, 5.0) == len(want)
    # random hole radii, centres and radii, some through a lattice point; the
    # hole stays at the origin while the disk's centre moves
    rng = np.random.default_rng(11)
    for _ in range(150):
        a, b = float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.3, 1.2))
        hk, hl = rng.integers(-4, 5, size=2)
        hole_radius = float(rng.choice([rng.uniform(0.0, 3.0), math.hypot(hk * a, hl * b)]))
        lam = lattice(a, b, hole_radius)
        cx, cy = float(rng.uniform(-4.0, 4.0)), float(rng.integers(-16, 17) * b / 8.0)
        k, l = rng.integers(-8, 9, size=2)
        r = float(rng.choice([rng.uniform(0.0, 8.0), math.hypot(k * a - cx, l * b - cy)]))
        for closed in (True, False):
            assert lam.lattice_points_near(cx, cy, r, closed) \
                == scan_lattice_points(lam, cx, cy, r, closed), (a, b, hole_radius, cx, cy, r)
    # the closed ball counts the 12 on-circle points, the open ball does not
    plain = lattice(0.5, 0.5)
    closed_n = plain.lattice_count_near(0.0, 0.0, 10.0)
    open_n = len(plain.lattice_points_near(0.0, 0.0, 10.0, closed=False))
    assert closed_n - open_n == 12


def _orbit_group(p: np.ndarray) -> np.ndarray:
    """0 on the open quadrant x, w > 0, 1 on the positive half-axes, 2 at the
    origin, 3 elsewhere."""
    x, w = p[:, 0], p[:, 1]
    return np.select([(x > 0) & (w > 0), ((x > 0) & (w == 0)) | ((x == 0) & (w > 0)),
                      (x == 0) & (w == 0)], [0, 1, 2], 3)


def _lexicographic_section_eigs(lam, radius: float, margin: float) -> np.ndarray:
    """The section's sorted spectrum assembled from the coefficients of the
    restriction in its lexicographic order, each orbit block's columns
    gathered by index: quadrant, half-axes, origin."""
    p = np.asarray(lam.restrict(euclid_ball(radius)), dtype=float)
    coeff = reps.hermite_gabor_coefficients(frames.section_mode_count(radius, margin), p)
    group = _orbit_group(p)
    cols = coeff.take(np.concatenate([np.flatnonzero(group == g) for g in range(3)]), axis=1)
    q, h = 2 * np.count_nonzero(group == 0), 2 * np.count_nonzero(group <= 1)
    blocks = []
    for d in (cols[0::2].view(float), cols[1::2].view(float)):
        s = d[:, :q] @ d[:, :q].T
        s *= 4.0
        s += 2.0 * (d[:, q:h] @ d[:, q:h].T)
        s += d[:, h:] @ d[:, h:].T
        blocks.append(s)
    return np.sort(np.concatenate([frames._hermitian_eigs(s, "section operator")
                                   for s in blocks]))


@pytest.mark.parametrize("lam", [
    frames.lattice(0.5, 0.5),
    frames.lattice(0.45, 0.6),
    frames.lattice(0.6, 0.4, hole_radius=2.0),
    frames.lattice(0.5, 0.45, hole_radius=1.5),  # through (+-1.5, 0), which stay
    frames.lattice(0.5, 0.45, hole_radius=0.3),  # removes the origin alone
    frames.lattice(0.5, 0.25, hole_radius=1.0),  # through (+-1, 0) and (0, +-1)
], ids=["plain", "a!=b", "holed-symmetric", "holed", "holed-origin", "holed-axes"])
def test_section_takes_the_restriction_as_an_array(monkeypatch, lam):
    # the Hermite call gets every restricted point once, the orbit
    # representatives leading: the open quadrant, the positive half-axes,
    # the origin (none when the hole removes it), then the rest, each group
    # lexicographic; the blocks slice the leading columns alone (the spy
    # overwrites every other column), and give the spectrum of a
    # lexicographic-order assembly to the last bit
    pts = lam.restrict(euclid_ball(7.0))
    seen = []
    hermite = reps.hermite_gabor_coefficients

    def spy(n_max, points):
        seen.append(points)
        coeff = hermite(n_max, points)
        coeff[:, _orbit_group(points) == 3] = 1.0 + 1.0j
        return coeff

    monkeypatch.setattr(reps, "hermite_gabor_coefficients", spy)
    got = frames.frame_operator_spectrum(lam, section_radius=7.0, margin=3.0)
    monkeypatch.undo()
    [p] = seen
    assert p.dtype == np.float64 and p.shape == (len(pts), 2)
    assert sorted(map(tuple, p.tolist())) == list(pts)
    group = _orbit_group(p)
    assert np.all(np.diff(group) >= 0)
    for g in range(4):
        run = p[group == g].tolist()
        assert run == sorted(run)
    assert np.count_nonzero(group == 2) == (0 if lam.hole_radius else 1)
    if lam.hole_radius == 1.0:
        on_circle = [tuple(q) for q in p[group == 1].tolist() if q[0] ** 2 + q[1] ** 2 == 1.0]
        assert on_circle == [(0.0, 1.0), (1.0, 0.0)]
    eigs = _lexicographic_section_eigs(lam, 7.0, 3.0)
    assert got.spectrum.tobytes() == eigs.tobytes()
    assert (got.lower, got.upper) == (max(float(eigs[0]), 0.0), float(eigs[-1]))
    assert got.kind == "frame" and got.method == "truncated_section(R=7, margin=3)"


def test_restrict_refuses_balls_other_than_plane_disks():
    # a word or gauge ball is not a disk: its elements are not the lattice
    # points inside a circle, so restrict names the metric's kind instead of
    # reading the radius as a disk's (a word ball of radius 3 on Z^2 has 25
    # elements; the unit lattice has 29 points in the disk of radius 3)
    lam = lattice(1.0, 1.0)
    for metric in (groups.word_metric(groups.integer_lattice(2)),
                   groups.word_metric(groups.discrete_heisenberg()),
                   groups.heisenberg_gauge_metric(groups.discrete_heisenberg()),
                   groups.euclidean_metric(dim=3)):
        with pytest.raises(ValueError, match=metric.kind):
            lam.restrict(groups.ball(metric, 2.0 if metric.group.dim == 3 else 3.0))
    assert len(lam.restrict(euclid_ball(3.0))) == 29


def test_lattice_count_near_with_a_radius_per_centre(monkeypatch):
    # stacked (radius, centre) rows, in any order and in blocks of a few
    # centres, count as one call per radius does; centres lie off the origin
    rng = np.random.default_rng(14)
    radii = [0.0, 1.5, 4.25, 5.0, 6.0]
    for lam in (lattice(0.4807, 0.25 / 0.4807), lattice(0.37, 1.3), lattice(1.0, 1.0)):
        cx = rng.uniform(-3.0, 3.0, 30)
        cy = rng.uniform(-3.0, 3.0, 30)
        if lam.a == 1.0:
            cx[:4], cy[:4] = [0, 3, 4, -3], [0, 4, 3, 4]  # points on the r = 5 circle
        want = np.concatenate([lam.lattice_count_near(cx, cy, r) for r in radii])
        xs, ys = np.tile(cx, len(radii)), np.tile(cy, len(radii))
        rs = np.repeat(radii, cx.size)
        got = lam.lattice_count_near(xs, ys, rs)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
        perm = rng.permutation(xs.size)
        with monkeypatch.context() as m:
            m.setattr(frames, "_BLOCK_CELLS", 64)
            assert lam.lattice_count_near(xs[perm], ys[perm], rs[perm]).tolist() \
                == want[perm].tolist()
        # one centre with many radii broadcasts; all scalars give an int
        fan = lam.lattice_count_near(0.3, -0.2, np.array(radii))
        assert fan.tolist() == [lam.lattice_count_near(0.3, -0.2, r) for r in radii]
        assert type(lam.lattice_count_near(0.3, -0.2, 4.25)) is int
