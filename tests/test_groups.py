"""Group models, metrics, balls, growth fits, and Folner machinery.

The discrete oracles here are independent re-derivations: an ell^1 closed form
for Z^2 word balls and an ell^1 box scan for Z^d, a from-scratch BFS for the
Heisenberg group in normal form (x, y, z), (x', y', z') -> (x + x', y + y',
z + z' + x y'), the telescoping Folner ratio formula for nested ell^1 balls,
and a set-algebra Folner ratio on tuples.
"""

import itertools
import math
import os
from collections import deque

import numpy as np
import pytest

from coherentlab import cli, groups


def z2_ball_size(r):
    """#\\{(x, y) in Z^2 : |x| + |y| <= r\\} = 2 r^2 + 2 r + 1."""
    return 2 * r * r + 2 * r + 1


def heisenberg_mul(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])


HEISENBERG_GENS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]


def heisenberg_bfs_distances(max_radius):
    """Word length of every element of H3(Z) of length <= max_radius, by plain
    BFS on the four standard generators."""
    dist = {(0, 0, 0): 0}
    queue = deque([(0, 0, 0)])
    while queue:
        el = queue.popleft()
        d = dist[el]
        if d == max_radius:
            continue
        for g in HEISENBERG_GENS:
            q = heisenberg_mul(el, g)
            if q not in dist:
                dist[q] = d + 1
                queue.append(q)
    return dist


def heisenberg_bfs_oracle(max_radius):
    """Sphere sizes of H3(Z) by plain BFS on the four standard generators."""
    sizes = [0] * (max_radius + 1)
    for d in heisenberg_bfs_distances(max_radius).values():
        sizes[d] += 1
    return sizes


def folner_ratio_reference(mul, kn_points, k_points):
    """|K_n K minus the elements whose translates by K all stay in K_n| / |K_n|,
    by set algebra on tuples."""
    kn = set(kn_points)
    prod = {mul(p, q) for p in kn_points for q in k_points}
    boundary = sum(1 for el in prod if any(mul(el, q) not in kn for q in k_points))
    return boundary / len(kn_points)


def ell1_ball(dim, r):
    """Sorted points of Z^dim with |x_1| + ... + |x_dim| <= r, by a box scan."""
    return sorted(p for p in itertools.product(range(-r, r + 1), repeat=dim)
                  if sum(map(abs, p)) <= r)


def z2_folner_ratio_oracle(r):
    """For K_n = closed ball radius r and K = closed ball radius 1 in the Z^2
    word metric, the boundary set is exactly B_{r+1} minus B_{r-1}."""
    return (z2_ball_size(r + 1) - z2_ball_size(r - 1)) / z2_ball_size(r)


def test_z2_word_balls_match_ell1_closed_form():
    metric = groups.word_metric(groups.integer_lattice(2))
    for r in range(6):
        b = groups.ball(metric, None, float(r))
        assert len(b.points) == z2_ball_size(r)
        # every enumerated point really lies at word length <= r, and the
        # next shell is excluded
        assert all(abs(p[0]) + abs(p[1]) <= r for p in b.points)
    # open balls at integer radii drop the outermost shell
    b_open = groups.ball(metric, None, 3.0, closed=False)
    assert len(b_open.points) == z2_ball_size(2)
    assert groups.ball_measure(metric, 2.5) == z2_ball_size(2)


def test_heisenberg_word_balls_match_bfs_oracle():
    sizes = heisenberg_bfs_oracle(5)
    cum = np.cumsum(sizes)
    assert cum[1] == 5 and cum[2] == 17 and cum[3] == 53
    metric = groups.word_metric(groups.discrete_heisenberg())
    for r in range(6):
        assert groups.ball_measure(metric, float(r)) == cum[r]
    # left-invariance: d(a, b) = |a^{-1} b|
    g = groups.discrete_heisenberg()
    a, b = (2, -1, 3), (0, 1, -2)
    rel = g.multiply(g.inverse(a), b)
    assert metric.distance(a, b) == metric.length(rel)


def test_ball_translation_preserves_size_and_membership():
    metric = groups.word_metric(groups.discrete_heisenberg())
    b = groups.ball(metric, None, 2.0)
    t = groups.ball(metric, (1, 2, -1), 2.0)
    assert len(t.points) == len(b.points)
    assert all(metric.distance((1, 2, -1), p) <= 2.0 for p in t.points)
    b2 = b.translate((1, 2, -1))
    assert set(b2.points) == set(t.points)


def test_cygan_gauge_triangle_inequality_and_homogeneity():
    metric = groups.heisenberg_gauge_metric()
    g = metric.group
    rng = np.random.default_rng(3)
    pts = [tuple(int(v) for v in rng.integers(-6, 7, size=3)) for _ in range(60)]
    for i in range(0, 60, 3):
        x, y, z = pts[i], pts[i + 1], pts[i + 2]
        assert metric.distance(x, z) <= metric.distance(x, y) + metric.distance(y, z) + 1e-12
    # gauge of the commutator a b a^-1 b^-1 = (0, 0, 1): |(0,0,1)| = 2 t^(1/2) form
    assert metric.length((0, 0, 1)) == pytest.approx(2.0, rel=1e-12)
    assert metric.length((1, 0, 0)) == pytest.approx(1.0, rel=1e-12)


def test_heisenberg_gauge_balls_and_growth():
    metric = groups.heisenberg_gauge_metric()
    b2 = groups.ball(metric, None, 2.0)
    assert len(b2.points) == 19
    # brute re-count over an ample integer box
    count = 0
    for x in range(-3, 4):
        for y in range(-3, 4):
            for z in range(-8, 9):
                t = z - x * y / 2.0
                if ((x * x + y * y) ** 2 + 16.0 * t * t) ** 0.25 <= 2.0:
                    count += 1
    assert count == 19
    fit = groups.fit_growth_exponent(metric, [4, 5, 6, 7, 8, 9, 10])
    assert 3.5 <= fit.exponent_hat <= 4.5


def test_growth_fit_z2_and_heisenberg_word():
    m2 = groups.word_metric(groups.integer_lattice(2))
    fit2 = groups.fit_growth_exponent(m2, [4, 5, 6, 7, 8, 9, 10, 11, 12])
    assert 1.8 <= fit2.exponent_hat <= 2.2
    assert fit2.residual < 0.1
    mh = groups.word_metric(groups.discrete_heisenberg())
    fith = groups.fit_growth_exponent(mh, [5, 6, 7, 8, 9, 10, 11, 12])
    assert 3.5 <= fith.exponent_hat <= 4.5
    assert fith.volumes == tuple(sum(heisenberg_bfs_oracle(12)[: r + 1])
                                 for r in (5, 6, 7, 8, 9, 10, 11, 12))


def test_growth_fit_input_validation():
    metric = groups.word_metric(groups.integer_lattice(2))
    with pytest.raises(ValueError):
        groups.fit_growth_exponent(metric, [4, 5, 6])
    with pytest.raises(ValueError):
        groups.fit_growth_exponent(metric, [4, 6, 5, 7])
    with pytest.raises(ValueError):
        groups.fit_growth_exponent(metric, [0.5, 4, 5, 6])


def test_euclidean_annular_decay_certificate(tmp_path):
    metric = groups.euclidean_metric(dim=2)
    fit = groups.estimate_annular_decay(metric, [2, 4, 8, 16], [0.25, 0.5])
    assert fit.delta_hat == pytest.approx(1.0)
    # 1 - (1 - f)^2 <= c f at delta = 1 forces c = 1.75 at f = 1/4
    assert fit.c_hat == pytest.approx(1.75, rel=1e-12)
    assert fit.c_hat <= 2.0
    assert fit.violations == 0
    # scale invariance: the euclidean ratio depends on the fraction alone, so
    # fresh radii with the fitted fractions stay certified
    fresh = groups.annular_violations(fit, metric, [3, 5, 9, 17, 33], [0.25, 0.5])
    assert fresh == 0
    # the constant is minimal on the fitted samples: a strictly smaller
    # fraction needs c = 2 - f > 1.75 and must be reported as a violation
    assert groups.annular_violations(fit, metric, [4], [0.1]) == 1
    # with c_max = 0.5 no grid delta is certified: the fit falls back to
    # c_hat > c_max, and the geometry run must fail the record even though
    # the fallback certificate has no violations on the fresh radii
    tight = groups.estimate_annular_decay(metric, [2, 4, 8], [0.01, 0.5], c_max=0.5)
    assert tight.c_hat == pytest.approx(0.7764, abs=1e-4)
    ini = tmp_path / "tight.ini"
    ini.write_text("[geometry]\ngroup = euclidean\nannular_radii = 2,4,8\n"
                   "annular_fracs = 0.01,0.5\nannular_c_max = 0.5\n")
    report = cli.run_geometry(cli.load_config(str(ini), "geometry"))
    rec = next(r for r in report.records if r["name"] == "annular_decay")
    assert rec["c_hat"] == tight.c_hat and rec["violations_recheck"] == 0
    assert rec["passed"] is False and not report.overall_pass


def test_discrete_annular_decay_certificate():
    metric = groups.word_metric(groups.integer_lattice(2))
    fit = groups.estimate_annular_decay(metric, [4, 8, 16], [0.25, 0.5])
    assert 0 < fit.delta_hat <= 1.0
    assert fit.violations == 0
    assert groups.annular_violations(fit, metric, [4, 8, 16], [0.25, 0.5]) == 0
    with pytest.raises(ValueError):
        groups.estimate_annular_decay(metric, [4, 8], [0.0, 0.5])


def test_folner_ratio_z2_matches_telescoping_formula():
    metric = groups.word_metric(groups.integer_lattice(2))
    k = groups.ball(metric, None, 1.0)
    for r in (5, 10, 20):
        kn = groups.ball(metric, None, float(r))
        assert groups.folner_ratio(metric, kn, k) == pytest.approx(
            z2_folner_ratio_oracle(r), rel=1e-12)
    r10 = groups.folner_ratio(metric, groups.ball(metric, None, 10.0), k)
    r20 = groups.folner_ratio(metric, groups.ball(metric, None, 20.0), k)
    assert r20 < r10
    assert r20 < 0.2
    assert r10 == pytest.approx(84.0 / 221.0, rel=1e-12)
    assert r20 == pytest.approx(164.0 / 841.0, rel=1e-12)


def test_folner_ratio_euclidean_closed_form():
    metric = groups.euclidean_metric(dim=2)
    kn = groups.ball(metric, None, 10.0)
    k = groups.ball(metric, None, 1.0)
    # ((r + 1)^2 - (r - 1)^2) / r^2 = 4 / r
    assert groups.folner_ratio(metric, kn, k) == pytest.approx(0.4, rel=1e-12)


def test_folner_ratio_requires_centered_k():
    metric = groups.word_metric(groups.integer_lattice(2))
    kn = groups.ball(metric, None, 4.0)
    k_off = groups.ball(metric, (1, 0), 1.0)
    with pytest.raises(ValueError):
        groups.folner_ratio(metric, kn, k_off)


def test_folner_exhaustion_validation_names_step():
    metric = groups.word_metric(groups.integer_lattice(2))
    with pytest.raises(ValueError, match="step"):
        groups.folner_exhaustion(metric, 2.0, 3, 1.5)
    with pytest.raises(ValueError):
        groups.folner_exhaustion(metric, 0.0, 3, 2.0)
    with pytest.raises(ValueError):
        groups.folner_exhaustion(metric, 1.0, 0, 2.0)
    seq = groups.folner_exhaustion(metric, 1.0, 3, 4.0)
    assert [b.radius for b in seq] == [4.0, 8.0, 12.0]
    ratios = [groups.folner_ratio(metric, b, groups.ball(metric, None, 1.0))
              for b in seq]
    assert ratios == sorted(ratios, reverse=True)


def test_ball_budget_env_override(monkeypatch):
    monkeypatch.setenv(groups.BUDGET_ENV_VAR, "50")
    assert groups.ball_budget() == 50
    metric = groups.word_metric(groups.integer_lattice(2))
    with pytest.raises(groups.BudgetExceededError):
        groups.ball(metric, None, 30.0)
    gauge = groups.heisenberg_gauge_metric()
    with pytest.raises(groups.BudgetExceededError):
        groups.ball(gauge, None, 40.0)
    monkeypatch.delenv(groups.BUDGET_ENV_VAR)
    assert groups.ball_budget() == groups.DEFAULT_BALL_BUDGET


def test_euclidean_balls_have_lebesgue_measure():
    metric = groups.euclidean_metric(dim=2)
    b = groups.ball(metric, None, 3.0)
    assert b.points is None
    assert b.measure == pytest.approx(9.0 * math.pi, rel=1e-14)
    with pytest.raises(ValueError):
        groups.ball(metric, None, -1.0)


def test_metric_factory_kind_guards():
    with pytest.raises(ValueError):
        groups.word_metric(groups.euclidean(2))
    with pytest.raises(ValueError):
        groups.euclidean_metric(groups.integer_lattice(2))
    with pytest.raises(ValueError):
        groups.heisenberg_gauge_metric(groups.integer_lattice(3))
    # each factory carries its standard generator star
    assert groups.word_metric(groups.integer_lattice(3)).length((1, 1, 1)) == 3
    assert groups.word_metric(groups.discrete_heisenberg()).length((0, 0, 1)) == 4


def test_heisenberg_word_length_matches_bfs_distances():
    dist = heisenberg_bfs_distances(6)
    far = max(dist, key=dist.get)
    # a fresh metric grows its spheres on demand from the first lookup
    assert groups.word_metric(groups.discrete_heisenberg()).length(far) == dist[far] == 6
    metric = groups.word_metric(groups.discrete_heisenberg())
    for el, d in dist.items():
        assert metric.length(el) == d
    # neighbours of the 6-sphere outside the oracle's ball have length 7
    outside = {heisenberg_mul(el, g) for el, d in dist.items() if d == 6
               for g in HEISENBERG_GENS} - set(dist)
    assert outside and all(metric.length(el) == 7 for el in outside)


@pytest.mark.parametrize("k_radius", [1, 2])
def test_folner_ratio_heisenberg_matches_set_reference(k_radius):
    metric = groups.word_metric(groups.discrete_heisenberg())
    k = groups.ball(metric, None, float(k_radius))
    for r in range(3, 9):
        kn = groups.ball(metric, None, float(r))
        assert groups.folner_ratio(metric, kn, k) == folner_ratio_reference(
            heisenberg_mul, kn.points, k.points)
    # a translated K_n: the ratio is left-invariant
    kn = groups.ball(metric, (2, -1, 3), 4.0)
    ratio = groups.folner_ratio(metric, kn, k)
    assert ratio == folner_ratio_reference(heisenberg_mul, kn.points, k.points)
    assert ratio == groups.folner_ratio(metric, groups.ball(metric, None, 4.0), k)


def test_folner_ratio_torus_matches_set_reference():
    # right translates wrap around Z_7 x Z_7; from radius 6 on K_n is the group
    n = 7
    metric = groups.word_metric(groups.finite_cyclic_sq(n))

    def torus_mul(a, b):
        return ((a[0] + b[0]) % n, (a[1] + b[1]) % n)

    for k_radius in (1.0, 2.0):
        k = groups.ball(metric, None, k_radius)
        for r in range(1, 8):
            kn = groups.ball(metric, None, float(r))
            assert groups.folner_ratio(metric, kn, k) == folner_ratio_reference(
                torus_mul, kn.points, k.points)
    assert groups.folner_ratio(metric, groups.ball(metric, None, 6.0),
                               groups.ball(metric, None, 1.0)) == 0.0


@pytest.mark.parametrize("k_radius", [1.0, 2.0])
def test_folner_ratio_heisenberg_gauge_matches_set_reference(k_radius):
    metric = groups.heisenberg_gauge_metric()
    k = groups.ball(metric, None, k_radius)
    for r in (2.0, 3.0, 4.5):
        kn = groups.ball(metric, None, r)
        assert groups.folner_ratio(metric, kn, k) == folner_ratio_reference(
            heisenberg_mul, kn.points, k.points)
    kn = groups.ball(metric, (1, -2, 5), 3.0)
    assert groups.folner_ratio(metric, kn, k) == folner_ratio_reference(
        heisenberg_mul, kn.points, k.points)


def test_geometry_run_never_decodes_ball_points(tmp_path, monkeypatch):
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                          "geometry_heisenberg.ini")
    cli.run_experiment("geometry", config, str(tmp_path / "decoded"))

    def no_decode(self):
        raise AssertionError("a geometry run decoded Ball.points")

    monkeypatch.setattr(groups.Ball, "points", property(no_decode))
    report = cli.run_experiment("geometry", config, str(tmp_path / "keys"))
    assert report.overall_pass
    for name in ("report.json", "rows.csv"):
        assert ((tmp_path / "keys" / name).read_bytes()
                == (tmp_path / "decoded" / name).read_bytes())


@pytest.mark.parametrize("dim, radii", [(1, range(0, 12)), (4, range(0, 6))])
def test_integer_lattice_word_balls_match_ell1_count(dim, radii):
    metric = groups.word_metric(groups.integer_lattice(dim))
    for r in radii:
        expect = ell1_ball(dim, r)
        b = groups.ball(metric, None, float(r))
        # same points, in lexicographic order, as Python ints
        assert list(b.points) == expect
        assert all(type(x) is int for p in b.points for x in p)
        assert groups.ball_measure(metric, float(r)) == len(expect)
        assert groups.ball_measure(metric, r + 0.5, closed=False) == len(expect)


def test_finite_torus_ball_past_the_diameter_is_the_group():
    group = groups.finite_cyclic_sq(5)
    metric = groups.word_metric(group)
    assert groups.ball_measure(metric, 2.0) == 13
    for r in (4.0, 6.0, 11.0):
        b = groups.ball(metric, None, r)
        assert list(b.points) == group.elements()
        assert groups.ball_measure(metric, r) == 25


def test_ball_budget_fires_at_the_exact_element_count(monkeypatch):
    r = 5
    size = sum(heisenberg_bfs_oracle(r + 1)[: r + 1])
    monkeypatch.setenv(groups.BUDGET_ENV_VAR, str(size))
    assert len(groups.ball(groups.word_metric(groups.discrete_heisenberg()),
                           None, float(r)).points) == size
    with pytest.raises(groups.BudgetExceededError):
        groups.ball(groups.word_metric(groups.discrete_heisenberg()), None, r + 1.0)
    with pytest.raises(groups.BudgetExceededError):
        groups.ball_measure(groups.word_metric(groups.discrete_heisenberg()), r + 1.0)


def test_coordinates_outside_the_key_range_raise():
    # H3 packs 63 // 3 = 21 bits per coordinate: [-2^20, 2^20)
    metric = groups.word_metric(groups.discrete_heisenberg())
    with pytest.raises(OverflowError):
        metric.length((1 << 20, 0, 0))
    k = groups.ball(metric, None, 1.0)
    # left translation along y moves no z coordinate; K_n K K stays in range
    edge = groups.ball(metric, (0, (1 << 20) - 4, 0), 1.0)
    assert groups.folner_ratio(metric, edge, k) == groups.folner_ratio(
        metric, groups.ball(metric, None, 1.0), k)
    with pytest.raises(OverflowError):
        groups.folner_ratio(metric, groups.ball(metric, (0, (1 << 20) - 1, 0), 1.0), k)
    # Z^4: 15 bits per coordinate, [-2^14, 2^14)
    m4 = groups.word_metric(groups.integer_lattice(4))
    k4 = groups.ball(m4, None, 1.0)
    with pytest.raises(OverflowError):
        groups.folner_ratio(m4, groups.ball(m4, (0, 0, 0, -(1 << 14)), 1.0), k4)


@pytest.mark.parametrize("group, center", [
    (groups.integer_lattice(2), (3, -2)),
    (groups.integer_lattice(3), (3, -2, 5)),
    (groups.discrete_heisenberg(), (3, -2, 5)),
    (groups.finite_cyclic_sq(7), (3, 5)),
], ids=["Z2", "Z3", "H3", "Z7^2"])
def test_right_translates_match_the_decode_path(group, center):
    metric = groups.word_metric(group)
    for kn in (groups.ball(metric, None, 3.0), groups.ball(metric, center, 3.0)):
        pts = groups._coords(group, kn.keys)
        qs = groups.ball(metric, None, 2.0).points
        for q, got in zip(qs, groups._right_translates(group, kn.keys, qs), strict=True):
            want = groups._keys(group, group.multiply_array(pts, q))
            assert got.dtype == np.int64 and np.array_equal(got, want), q


@pytest.mark.parametrize("group", [groups.integer_lattice(2), groups.discrete_heisenberg()],
                         ids=["Z2", "H3"])
def test_bfs_and_folner_ratio_never_decode_spheres_or_balls(group, monkeypatch):
    metric = groups.word_metric(group)
    decoded = []
    coords = groups._coords

    def counted(g, keys):
        decoded.append(len(keys))
        return coords(g, keys)

    def no_multiply(self, a, b):
        raise AssertionError("multiply_array called on Z^d or H3")

    monkeypatch.setattr(groups, "_coords", counted)
    monkeypatch.setattr(groups.GroupModel, "multiply_array", no_multiply)
    k = groups.ball(metric, None, 2.0)
    kn = groups.ball(metric, None, 6.0)
    assert groups.folner_ratio(metric, kn, k) > 0
    assert decoded == [k.measure]  # only the rows of K


def test_right_translates_raise_when_a_product_field_leaves_the_key_range():
    # H3: 21 bits per field, coordinates in [-2^20, 2^20)
    h3 = groups.discrete_heisenberg()
    top = (1 << 20) - 1

    def translate(p, q):
        [moved] = groups._right_translates(h3, groups._keys(h3, np.array([p])), [q])
        return moved

    for p, q in (((top, 0, 0), (1, 0, 0)),            # x by a
                 ((-top - 1, 5, 0), (-1, 0, 0)),
                 ((0, top, 0), (0, 1, 0)),            # y by b
                 ((1 << 10, 0, top - (1 << 10) + 1), (0, 1, 0)),  # z by x * b
                 ((-(1 << 10), 3, -(1 << 20) + (1 << 11) - 1), (0, 2, 0))):
        with pytest.raises(OverflowError):
            translate(p, q)
        with pytest.raises(OverflowError):  # the decode path agrees
            groups._keys(h3, h3.multiply_array(np.array([p]), q))
    # one step inside the range is exact
    p, q = (1 << 10, 0, top - (1 << 10)), (0, 1, 0)
    assert groups._coords(h3, translate(p, q)).tolist() == [[1 << 10, 1, top]]



def test_word_balls_of_any_radius_on_a_finite_torus():
    # the BFS stops at the first empty sphere: a radius far past the diameter
    # gives the whole torus without growing one sphere per unit of radius
    metric = groups.word_metric(groups.finite_cyclic_sq(4))
    for radius in (4.0, 1e6, 1e300):
        assert groups.ball(metric, None, radius).measure == 16.0
        assert groups.ball_measure(metric, radius) == 16.0
    assert len(metric._layers) == 6  # spheres of radius 0..4, then the empty one
