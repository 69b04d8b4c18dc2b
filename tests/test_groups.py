"""Group models, metrics, balls, growth fits, and Folner machinery.

The discrete oracles here are independent re-derivations: an ell^1 closed form
for Z^2 word balls and an ell^1 box scan for Z^d, a from-scratch BFS for the
Heisenberg group in normal form (x, y, z), (x', y', z') -> (x + x', y + y',
z + z' + x y'), a tuple-set BFS on the group law of every discrete kind, the
telescoping Folner ratio formula for nested ell^1 balls, a set-algebra Folner
ratio on tuples, and the gauge-ball enumeration as one scalar gauge per
candidate.  The pointwise group law, word lengths and gauge come from
tests/reference.py.  The finite model's torus balls, reps.torus_ball, are
checked against the same tuple BFS.
"""

import functools
import itertools
import math
import os
import tracemalloc
from collections import deque

import numpy as np
import pytest

from coherentlab import cli, groups, reps
from reference import cygan_gauge, distance, h3_length, inverse, length, multiply


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


def hand_made_ball(metric, points, radius=0.0):
    """A Ball made from the sorted keys of these elements of the metric's
    group, with no runs, which need not be a ball about the identity: the
    Folner count takes any finite K_n, and splits its keys into runs."""
    group = metric.group
    pts = np.array(points, dtype=np.int64).reshape(-1, group.dim)
    keys = np.sort(groups._keys(group, pts))
    return groups.Ball(metric, radius, True, keys, float(len(keys)))


def translated(metric, b, x):
    """The left translate x b of a discrete ball, on tuples."""
    return hand_made_ball(metric, [multiply(metric.group, x, p) for p in b.points], b.radius)


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
        b = groups.ball(metric, float(r))
        assert len(b.points) == z2_ball_size(r)
        # every enumerated point really lies at word length <= r, and the
        # next shell is excluded
        assert all(abs(p[0]) + abs(p[1]) <= r for p in b.points)
    # open balls at integer radii drop the outermost shell
    b_open = groups.ball(metric, 3.0, closed=False)
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
    rel = multiply(g, inverse(g, a), b)
    assert distance(metric, a, b) == length(metric, rel)


def test_cygan_gauge_triangle_inequality_and_homogeneity():
    metric = groups.heisenberg_gauge_metric()
    rng = np.random.default_rng(3)
    pts = [tuple(int(v) for v in rng.integers(-6, 7, size=3)) for _ in range(60)]
    for i in range(0, 60, 3):
        x, y, z = pts[i], pts[i + 1], pts[i + 2]
        assert distance(metric, x, z) <= (distance(metric, x, y) + distance(metric, y, z)
                                          + 1e-12)
    # gauge of the commutator a b a^-1 b^-1 = (0, 0, 1): |(0,0,1)| = 2 t^(1/2) form
    assert length(metric, (0, 0, 1)) == pytest.approx(2.0, rel=1e-12)
    assert length(metric, (1, 0, 0)) == pytest.approx(1.0, rel=1e-12)


def test_heisenberg_gauge_balls_and_growth():
    metric = groups.heisenberg_gauge_metric()
    b2 = groups.ball(metric, 2.0)
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


def test_annular_decay_names_an_empty_input():
    metric = groups.word_metric(groups.integer_lattice(2))
    with pytest.raises(ValueError, match="r_samples"):
        groups.estimate_annular_decay(metric, [], [0.5])
    with pytest.raises(ValueError, match="s_fracs"):
        groups.estimate_annular_decay(metric, [4, 8], [])
    fit = groups.estimate_annular_decay(metric, [4, 8], [0.5])
    with pytest.raises(ValueError, match="r_samples"):
        groups.annular_violations(fit, metric, [], [0.5])


@pytest.mark.parametrize("metric", [
    groups.word_metric(groups.integer_lattice(2)), groups.word_metric(groups.discrete_heisenberg()),
    None, groups.heisenberg_gauge_metric(),
], ids=["Z2", "H3", "Z5^2", "gauge"])
def test_discrete_balls_name_a_radius_that_is_not_finite(metric):
    # None stands for the finite model's torus Z_5 x Z_5, whose balls are masks
    measures = ((groups.ball, groups.ball_measure) if metric
                else (lambda _, r: reps.torus_ball(5, r),))
    for radius in (math.inf, math.nan, -math.inf, -1.0):
        for measure in measures:
            with pytest.raises(ValueError, match="radius"):
                measure(metric, radius)
    assert metric is None or not len(metric._h3_sizes)  # nothing was sized


def test_euclidean_balls_name_a_radius_that_is_nan():
    metric = groups.euclidean_metric(dim=2)
    for measure in (groups.ball, groups.ball_measure):
        with pytest.raises(ValueError, match="radius"):
            measure(metric, math.nan)
    # the closed form of an infinite radius is the whole plane
    assert groups.ball_measure(metric, math.inf) == math.inf


def test_folner_ratio_z2_matches_telescoping_formula():
    metric = groups.word_metric(groups.integer_lattice(2))
    k = groups.ball(metric, 1.0)
    for r in (5, 10, 20):
        kn = groups.ball(metric, float(r))
        assert groups.folner_ratio(metric, kn, k) == pytest.approx(
            z2_folner_ratio_oracle(r), rel=1e-12)
    r10 = groups.folner_ratio(metric, groups.ball(metric, 10.0), k)
    r20 = groups.folner_ratio(metric, groups.ball(metric, 20.0), k)
    assert r20 < r10
    assert r20 < 0.2
    assert r10 == pytest.approx(84.0 / 221.0, rel=1e-12)
    assert r20 == pytest.approx(164.0 / 841.0, rel=1e-12)


def test_folner_ratio_euclidean_closed_form():
    metric = groups.euclidean_metric(dim=2)
    kn = groups.ball(metric, 10.0)
    k = groups.ball(metric, 1.0)
    # ((r + 1)^2 - (r - 1)^2) / r^2 = 4 / r
    assert groups.folner_ratio(metric, kn, k) == pytest.approx(0.4, rel=1e-12)


def test_folner_ratio_of_an_empty_k_n_names_k_n():
    for metric, closed in ((groups.word_metric(groups.integer_lattice(2)), False),
                           (groups.heisenberg_gauge_metric(), False),
                           (groups.euclidean_metric(dim=2), True)):
        kn = groups.ball(metric, 0.0, closed)
        assert kn.measure == 0
        with pytest.raises(ValueError, match="K_n"):
            groups.folner_ratio(metric, kn, groups.ball(metric, 1.0))


def test_folner_ratio_z3_matches_set_reference():
    metric = groups.word_metric(groups.integer_lattice(3))
    for k_radius in (0.0, 1.0, 2.0):
        k = groups.ball(metric, k_radius)
        for r in range(1, 7):
            kn = groups.ball(metric, float(r))
            ratio = groups.folner_ratio(metric, kn, k)
            assert ratio == folner_ratio_reference(_add, kn.points, k.points)
            if k_radius == 0.0:
                assert ratio == 0.0
    # a K_n away from the identity: the ratio is left-invariant
    kn = translated(metric, groups.ball(metric, 5.0), (-7, 40, 3))
    assert groups.folner_ratio(metric, kn, k) == folner_ratio_reference(
        _add, kn.points, k.points) == groups.folner_ratio(metric, groups.ball(metric, 5.0), k)


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
    ratios = [groups.folner_ratio(metric, b, groups.ball(metric, 1.0))
              for b in seq]
    assert ratios == sorted(ratios, reverse=True)


def test_ball_budget_env_override(monkeypatch):
    monkeypatch.setenv(groups.BUDGET_ENV_VAR, "50")
    assert groups.ball_budget() == 50
    metric = groups.word_metric(groups.integer_lattice(2))
    with pytest.raises(groups.BudgetExceededError):
        groups.ball(metric, 30.0)
    gauge = groups.heisenberg_gauge_metric()
    with pytest.raises(groups.BudgetExceededError):
        groups.ball(gauge, 40.0)
    monkeypatch.delenv(groups.BUDGET_ENV_VAR)
    assert groups.ball_budget() == groups.DEFAULT_BALL_BUDGET


def test_euclidean_balls_have_lebesgue_measure():
    metric = groups.euclidean_metric(dim=2)
    b = groups.ball(metric, 3.0)
    assert b.points is None
    assert b.measure == pytest.approx(9.0 * math.pi, rel=1e-14)
    with pytest.raises(ValueError):
        groups.ball(metric, -1.0)


def test_metric_factory_kind_guards():
    with pytest.raises(ValueError):
        groups.word_metric(groups.euclidean(2))
    with pytest.raises(ValueError):
        groups.euclidean_metric(groups.integer_lattice(2))
    with pytest.raises(ValueError):
        groups.heisenberg_gauge_metric(groups.integer_lattice(3))
    # each factory carries its standard generator star: the unit word ball is
    # the identity and the star
    assert set(groups.ball(groups.word_metric(groups.integer_lattice(3)), 1.0).points) == {
        (0, 0, 0), *_star(3)}
    assert set(groups.ball(groups.word_metric(groups.discrete_heisenberg()), 1.0).points) == {
        (0, 0, 0), *HEISENBERG_GENS}


def test_heisenberg_word_length_matches_bfs_distances():
    dist = heisenberg_bfs_distances(6)
    far = max(dist, key=dist.get)
    metric = groups.word_metric(groups.discrete_heisenberg())
    assert length(metric, far) == dist[far] == 6
    for el, d in dist.items():
        assert length(metric, el) == d
    # neighbours of the 6-sphere outside the oracle's ball have length 7
    outside = {heisenberg_mul(el, g) for el, d in dist.items() if d == 6
               for g in HEISENBERG_GENS} - set(dist)
    assert outside and all(length(metric, el) == 7 for el in outside)


@pytest.mark.parametrize("k_radius", [1, 2])
def test_folner_ratio_heisenberg_matches_set_reference(k_radius):
    metric = groups.word_metric(groups.discrete_heisenberg())
    k = groups.ball(metric, float(k_radius))
    for r in range(3, 9):
        kn = groups.ball(metric, float(r))
        assert groups.folner_ratio(metric, kn, k) == folner_ratio_reference(
            heisenberg_mul, kn.points, k.points)
    # a K_n away from the identity, where each run's translate takes the
    # shear x q_y along z: the ratio is left-invariant
    kn = translated(metric, groups.ball(metric, 4.0), (2, -1, 3))
    ratio = groups.folner_ratio(metric, kn, k)
    assert ratio == folner_ratio_reference(heisenberg_mul, kn.points, k.points)
    assert ratio == groups.folner_ratio(metric, groups.ball(metric, 4.0), k)


@pytest.mark.parametrize("k_radius", [1.0, 2.0])
def test_folner_ratio_heisenberg_gauge_matches_set_reference(k_radius):
    metric = groups.heisenberg_gauge_metric()
    k = groups.ball(metric, k_radius)
    for r in (2.0, 3.0, 4.5):
        kn = groups.ball(metric, r)
        assert groups.folner_ratio(metric, kn, k) == folner_ratio_reference(
            heisenberg_mul, kn.points, k.points)
    kn = translated(metric, groups.ball(metric, 3.0), (1, -2, 5))
    assert groups.folner_ratio(metric, kn, k) == folner_ratio_reference(
        heisenberg_mul, kn.points, k.points)


@pytest.mark.parametrize("metric, radius", [
    (groups.word_metric(groups.integer_lattice(2)), 6.0),
    (groups.word_metric(groups.integer_lattice(3)), 4.0),
    (groups.word_metric(groups.discrete_heisenberg()), 5.0),
    (groups.heisenberg_gauge_metric(), 3.5),
], ids=["Z2", "Z3", "H3-word", "H3-gauge"])
def test_folner_ratio_of_random_subsets_matches_set_reference(metric, radius):
    # a ball's columns are one run of keys each; a random subset of one, moved
    # off the identity, breaks them into several runs per column
    mul = heisenberg_mul if metric.group.kind == groups.DISCRETE_HEISENBERG else _add
    rng = np.random.default_rng(23)
    pts = np.array(groups.ball(metric, radius).points)
    for k_radius in (1.0, 2.0):
        k = groups.ball(metric, k_radius)
        for keep in (0.3, 0.6, 0.9):
            sub = pts[rng.random(len(pts)) < keep]
            x = tuple(int(c) for c in rng.integers(-9, 10, metric.group.dim))
            kn = hand_made_ball(metric, [multiply(metric.group, x, tuple(p)) for p in sub.tolist()])
            columns = {p[:-1] for p in kn.points}
            assert np.count_nonzero(np.diff(kn.keys) != 1) + 1 > len(columns)
            assert groups.folner_ratio(metric, kn, k) == folner_ratio_reference(
                mul, kn.points, k.points), (k_radius, keep, x)


def length_scan(metric, radius, closed):
    """The elements of the ball, by one reference length per element of the
    box |x_i| <= r, and |z| <= r^2 on H3, which holds the word and the gauge
    ball alike."""
    m = math.floor(radius)
    spans = [range(-m, m + 1)] * metric.group.dim
    if metric.group.kind == groups.DISCRETE_HEISENBERG:
        spans[-1] = range(-m * m, m * m + 1)
    inside = (lambda d: d <= radius) if closed else (lambda d: d < radius)
    return [el for el in itertools.product(*spans) if inside(length(metric, el))]


@pytest.mark.parametrize("metric, radii", [
    (groups.word_metric(groups.integer_lattice(2)), (0.0, 1.0, 2.5, 6.0)),
    (groups.word_metric(groups.integer_lattice(3)), (0.0, 1.0, 3.0)),
    (groups.word_metric(groups.discrete_heisenberg()), (0.0, 1.0, 3.0, 5.5)),
    (groups.heisenberg_gauge_metric(), (0.0, 1.0, 2.0, 3.5)),
], ids=["Z2", "Z3", "H3-word", "H3-gauge"])
def test_ball_runs_decode_to_the_scanned_ball_and_count_as_its_keys_do(metric, radii):
    # a ball carries its columns as runs.  The keys decoded from them are the
    # elements a length scan finds, open and closed, the radius 0 open ball's
    # none among them; the measure counts them; the runs are the maximal runs
    # of those keys; and the Folner count on the runs, as K_n, translated or
    # not, and as K, equals the count on a ball made from the decoded elements
    group = metric.group
    k = groups.ball(metric, 1.0)
    x = (3, -2, 5)[:group.dim]
    for r in radii:
        for closed in (True, False):
            b = groups.ball(metric, r, closed)
            assert np.array_equal(b.keys, tuple_keys(group, length_scan(metric, r, closed)))
            assert b.measure == len(b.keys), (r, closed)
            twin = hand_made_ball(metric, b.points, r)
            for ours, theirs in zip(b.runs, twin.runs):
                assert np.array_equal(ours, theirs), (r, closed)
            assert groups.folner_ratio(metric, k, b) == groups.folner_ratio(metric, k, twin)
            if not b.measure:
                assert (r, closed) == (0.0, False)
                continue
            ratio = groups.folner_ratio(metric, b, k)
            assert ratio == groups.folner_ratio(metric, twin, k), (r, closed)
            assert ratio == groups.folner_ratio(metric, translated(metric, b, x), k), (r, closed)


@pytest.mark.parametrize("name", ["geometry_heisenberg", "geometry_gauge"])
def test_geometry_run_expands_no_folner_ball_into_keys(name, tmp_path, monkeypatch):
    # the Folner count reads each K_n's runs and decodes only K, so K is the
    # one ball of the run whose keys are expanded from its runs; a check on
    # the keys property in place of the stored arrays would expand every K_n
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.ini")
    keys = groups.Ball.keys
    expanded = []

    def spied(self):
        if self._stored_keys is None and self._stored_runs is not None:
            expanded.append(self.radius)
        return keys.fget(self)

    monkeypatch.setattr(groups.Ball, "keys", property(spied))
    report = cli.run_experiment("geometry", config, str(tmp_path))
    assert report.overall_pass
    assert expanded == [report.config["folner_k_radius"]]


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


def test_gauge_geometry_run_lays_out_each_ball_once(tmp_path, monkeypatch):
    # the gauge run measures and builds many balls of the same radius; the
    # metric keeps each (radius, closed) pair's columns, so each is laid out
    # once, and the reports equal those of a run that lays out every call anew
    config = tmp_path / "gauge.ini"
    config.write_text("[geometry]\ngroup = discrete_heisenberg\nmetric = heisenberg_gauge\n"
                      "growth_radii = 4,5,6,7,8\nfolner_count = 3\nfolner_step = 3\n"
                      "folner_k_radius = 2\nannular_radii = 4,6,8,10\n")
    layout, columns = groups._gauge_layout, groups._gauge_columns
    laid_out, calls = [], []

    def counted_layout(radius, closed):
        laid_out.append((radius, closed))
        return layout(radius, closed)

    def counted_columns(metric, radius, closed):
        calls.append((radius, closed))
        return columns(metric, radius, closed)

    monkeypatch.setattr(groups, "_gauge_layout", counted_layout)
    monkeypatch.setattr(groups, "_gauge_columns", counted_columns)
    cli.run_experiment("geometry", str(config), str(tmp_path / "kept"))
    assert len(laid_out) == len(set(laid_out)) == len(set(calls)) < len(calls)

    def unkept_columns(metric, radius, closed):
        metric._gauge_balls.clear()
        return columns(metric, radius, closed)

    monkeypatch.setattr(groups, "_gauge_columns", unkept_columns)
    cli.run_experiment("geometry", str(config), str(tmp_path / "anew"))
    for name in ("report.json", "rows.csv"):
        assert ((tmp_path / "kept" / name).read_bytes()
                == (tmp_path / "anew" / name).read_bytes())


@pytest.mark.parametrize("dim, radii", [(1, range(0, 12)), (4, range(0, 6))])
def test_integer_lattice_word_balls_match_ell1_count(dim, radii):
    metric = groups.word_metric(groups.integer_lattice(dim))
    for r in radii:
        expect = ell1_ball(dim, r)
        b = groups.ball(metric, float(r))
        # same points, in lexicographic order, as Python ints
        assert list(b.points) == expect
        assert all(type(x) is int for p in b.points for x in p)
        assert groups.ball_measure(metric, float(r)) == len(expect)
        assert groups.ball_measure(metric, r + 0.5, closed=False) == len(expect)


def test_finite_torus_ball_past_the_diameter_is_the_group():
    assert np.count_nonzero(reps.torus_ball(5, 2.0)) == 13
    for r in (4.0, 6.0, 11.0):
        assert reps.torus_ball(5, r).all()


def test_ball_budget_fires_at_the_exact_element_count(monkeypatch):
    r = 5
    size = sum(heisenberg_bfs_oracle(r + 1)[: r + 1])
    monkeypatch.setenv(groups.BUDGET_ENV_VAR, str(size))
    assert len(groups.ball(groups.word_metric(groups.discrete_heisenberg()),
                           float(r)).points) == size
    with pytest.raises(groups.BudgetExceededError):
        groups.ball(groups.word_metric(groups.discrete_heisenberg()), r + 1.0)
    with pytest.raises(groups.BudgetExceededError):
        groups.ball_measure(groups.word_metric(groups.discrete_heisenberg()), r + 1.0)


def test_coordinates_outside_the_key_range_raise():
    # H3 packs 63 // 3 = 21 bits per coordinate: [-2^20, 2^20)
    metric = groups.word_metric(groups.discrete_heisenberg())
    k = groups.ball(metric, 1.0)
    # a K_n moved along y, which moves no z coordinate: K_n K reaches
    # y = 2^20 - 1 and counts, one step further it leaves the range
    edge = translated(metric, k, (0, (1 << 20) - 3, 0))
    assert groups.folner_ratio(metric, edge, k) == groups.folner_ratio(metric, k, k)
    with pytest.raises(OverflowError):
        groups.folner_ratio(metric, translated(metric, k, (0, (1 << 20) - 2, 0)), k)
    # Z^4: 15 bits per coordinate, [-2^14, 2^14)
    m4 = groups.word_metric(groups.integer_lattice(4))
    k4 = groups.ball(m4, 1.0)
    with pytest.raises(OverflowError):
        groups.folner_ratio(m4, translated(m4, k4, (0, 0, 0, -(1 << 14) + 1)), k4)
    # Z^1: 63 bits, [-2^62, 2^62); K_n K reaches the greatest key, 2^63 - 1,
    # so its run ends one past the int64 range
    m1 = groups.word_metric(groups.integer_lattice(1))
    assert groups.folner_ratio(m1, hand_made_ball(m1, [(1 << 62) - 2]),
                               groups.ball(m1, 1.0)) == 3.0


@pytest.mark.parametrize("group, runs", [(groups.integer_lattice(2), 13),
                                         (groups.discrete_heisenberg(), 85)], ids=["Z2", "H3"])
def test_bfs_and_folner_ratio_never_decode_spheres_or_balls(group, runs, monkeypatch):
    metric = groups.word_metric(group)
    far = translated(metric, groups.ball(metric, 6.0), (900,) + (-5,) * (group.dim - 1))
    decoded = []
    coords = groups._coords

    def counted(g, keys):
        decoded.append(len(keys))
        return coords(g, keys)

    monkeypatch.setattr(groups, "_coords", counted)
    k = groups.ball(metric, 2.0)
    kn = groups.ball(metric, 6.0)
    assert groups.folner_ratio(metric, kn, k) == groups.folner_ratio(metric, far, k) > 0
    # the rows of K, then one row per run of the translate, which is made from
    # keys (as many runs as the radius 6 ball has columns), then the rows of
    # K: the ball K_n carries its runs and decodes nothing
    assert decoded == [k.measure, runs, k.measure]


def test_right_translates_raise_when_a_product_field_leaves_the_key_range():
    # H3: 21 bits per field, coordinates in [-2^20, 2^20)
    h3 = groups.discrete_heisenberg()
    metric = groups.word_metric(h3)
    top = (1 << 20) - 1

    def one_point_ratio(p, q):
        # K_n = {p} and K = {e, q, q^-1}: the count translates p by K
        k_pts = sorted({(0, 0, 0), q, inverse(h3, q)})
        return groups.folner_ratio(metric, hand_made_ball(metric, [p]),
                                   hand_made_ball(metric, k_pts, 1.0)), k_pts

    for p, q in (((top, 0, 0), (1, 0, 0)),            # x by a
                 ((-top - 1, 5, 0), (-1, 0, 0)),
                 ((0, top, 0), (0, 1, 0)),            # y by b
                 ((1 << 10, 0, top - (1 << 10) + 1), (0, 1, 0)),  # z by x * b
                 ((-(1 << 10), 3, -(1 << 20) + (1 << 11) - 1), (0, 2, 0))):
        with pytest.raises(OverflowError):
            one_point_ratio(p, q)
        with pytest.raises(OverflowError):  # the decode path agrees
            groups._keys(h3, np.array([multiply(h3, p, q)]))
    # one step inside the range is exact
    p, q = (1 << 10, 0, top - (1 << 10)), (0, 1, 0)
    ratio, k_pts = one_point_ratio(p, q)
    assert ratio == folner_ratio_reference(heisenberg_mul, [p], k_pts) == 3.0



def test_word_balls_of_any_radius_on_a_finite_torus():
    # past the diameter (4) the ball is the whole torus, in closed form: a
    # radius far past it costs no more than the diameter
    for radius in (4.0, 1e6, 1e300):
        assert reps.torus_ball(4, radius).shape == (4, 4)
        assert reps.torus_ball(4, radius).all()


def tuple_bfs_spheres(mul, gens, identity, max_radius):
    """Word spheres as sets of tuples, by BFS on the group law; stops at the
    first empty sphere."""
    spheres = [{identity}]
    seen = {identity}
    while len(spheres) <= max_radius and spheres[-1]:
        nxt = {mul(el, g) for el in spheres[-1] for g in gens} - seen
        seen |= nxt
        spheres.append(nxt)
    return spheres


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _torus_add(n):
    return lambda a, b: ((a[0] + b[0]) % n, (a[1] + b[1]) % n)


def _torus_gens(n):
    return [(1, 0), (n - 1, 0), (0, 1), (0, n - 1)]


def torus_lengths(n, spheres):
    """Word length of every element of Z_N x Z_N, as an (n, n) array, from
    its word spheres."""
    lengths = np.full((n, n), -1)
    for d, sphere in enumerate(spheres):
        for p in sphere:
            lengths[p] = d
    assert (lengths >= 0).all()  # the BFS reaches the whole torus
    return lengths


def _star(dim):
    return [tuple(s if j == i else 0 for j in range(dim)) for i in range(dim) for s in (1, -1)]


BFS_CASES = [
    (groups.integer_lattice(2), _add, [(1, 0), (-1, 0), (0, 1), (0, -1)], (0, 0), 60),
    (groups.discrete_heisenberg(), heisenberg_mul, HEISENBERG_GENS, (0, 0, 0), 30),
    # the finite model's torus masks, at odd and even N, out to past the
    # diameter; N stands in for the group
    *[(n, _torus_add(n), _torus_gens(n), (0, 0), 2 * n) for n in (2, 3, 4, 8, 9, 101)],
    *[(groups.integer_lattice(d), _add, _star(d), (0,) * d, radius)
      for d, radius in ((1, 40), (3, 12), (4, 8), (5, 6))],
]
BFS_IDS = ["Z2", "H3", "Z2^2", "Z3^2", "Z4^2", "Z8^2", "Z9^2", "Z101^2", "Z1", "Z3", "Z4", "Z5"]


def tuple_keys(group, points):
    """Sorted keys of a set of tuples."""
    return groups._keys(group, np.array(sorted(points), dtype=np.int64).reshape(-1, group.dim))


@pytest.mark.parametrize("group, mul, gens, identity, radius", BFS_CASES, ids=BFS_IDS)
def test_word_spheres_match_a_tuple_bfs(group, mul, gens, identity, radius):
    # the keys and measures of every word ball, closed and open, equal the
    # tuple BFS's at every radius.  One metric builds its balls largest first
    # and one smallest first, so the cached H3 sizes are read both ways.  On
    # the torus, the radii run past the diameter, where the spheres end with
    # an empty one, and on to 1e300, and each mask, at r and at r + 1/2, is
    # the elements the BFS reaches within r
    want = tuple_bfs_spheres(mul, gens, identity, radius)
    if isinstance(group, int):
        lengths = torus_lengths(group, want)
        for r in [*range(radius + 1), 1e300]:
            for mask in (reps.torus_ball(group, r), reps.torus_ball(group, r + 0.5)):
                assert mask.dtype == bool and np.array_equal(mask, lengths <= r), r
        return
    sizes = list(itertools.accumulate(map(len, want)))
    balls = []
    for sphere in want:
        run = [balls[-1]] if balls else []
        balls.append(np.sort(np.concatenate(run + [tuple_keys(group, sphere)])))
    radii = list(range(radius + 1))
    for m, order in ((groups.word_metric(group), radii[::-1]), (groups.word_metric(group), radii)):
        for r in order:
            at = min(r, len(want) - 1)
            closed, opened = groups.ball(m, r), groups.ball(m, r + 1, closed=False)
            for b in (closed, opened):
                assert b.keys.dtype == np.int64 and np.array_equal(b.keys, balls[at]), r
                assert b.measure == sizes[at], r
            assert groups.ball_measure(m, r) == groups.ball_measure(m, r + 0.5, False) == sizes[at]


def flip_orbit(group, el):
    """The orbit of an element under the generator sign flips, on tuples:
    x_i -> -x_i on Z^d; a -> a^-1 and b -> b^-1 on H3, which map (x, y, z) to
    (-x, y, -z) and (x, -y, -z)."""
    if group.kind == groups.DISCRETE_HEISENBERG:
        flips = [lambda p: (-p[0], p[1], -p[2]), lambda p: (p[0], -p[1], -p[2])]
    else:
        flips = [lambda p, i=i: p[:i] + (-p[i],) + p[i + 1:] for i in range(group.dim)]
    orbit = {el}
    for flip in flips:
        orbit |= {flip(p) for p in orbit}
    return orbit


@pytest.mark.parametrize("group, mul, gens, radius", [
    (groups.discrete_heisenberg(), heisenberg_mul, HEISENBERG_GENS, 14),
    *[(groups.integer_lattice(d), _add, _star(d), radius)
      for d, radius in ((1, 30), (2, 20), (3, 10), (4, 7), (5, 5))],
], ids=["H3", "Z1", "Z2", "Z3", "Z4", "Z5"])
def test_sphere_representatives_are_one_per_flip_orbit(group, mul, gens, radius):
    # the sign flips keep word length, so each sphere is a union of whole flip
    # orbits and the word ball is closed under the flips.  The closed-form
    # sizes count one representative per orbit (2^k points per point with k
    # nonzero coordinates on Z^d; 1, 2 or 4 columns per column with x, y >= 0
    # on H3) and give every sphere's size, on every boundary fibre of H3
    want = tuple_bfs_spheres(mul, gens, (0,) * group.dim, radius)
    metric = groups.word_metric(group)
    fibres = set()
    for r, sphere in enumerate(want):
        reps = {max(flip_orbit(group, p)) for p in sphere}
        orbits = [flip_orbit(group, p) for p in reps]
        assert set().union(*orbits) == sphere and sum(map(len, orbits)) == len(sphere), r
        inner = groups.ball_measure(metric, r, closed=False)
        assert groups.ball_measure(metric, r) - inner == len(sphere), r
        fibres |= {tuple(c == 0 for c in p) for p in reps}
    points = set(groups.ball(metric, radius).points)
    assert points == set().union(*want)
    assert all(flip_orbit(group, p) <= points for p in points)
    if group.kind == groups.DISCRETE_HEISENBERG:
        # every boundary fibre: x = 0, y = 0 or z = 0, and each pair of them
        assert fibres == {(a, b, c) for a in (False, True) for b in (False, True)
                          for c in (False, True)}


@pytest.mark.parametrize("group, radius", [
    (groups.integer_lattice(2), 40), (groups.integer_lattice(3), 12),
    (groups.discrete_heisenberg(), 20), (9, 12), (31, 20),
], ids=["Z2", "Z3", "H3", "Z9^2", "Z31^2"])
def test_growing_radius_by_radius_gives_the_layers_of_one_call(group, radius):
    # measures taken radius by radius, each past the cached H3 sizes
    # recomputing them, equal those of one pass out to the largest radius,
    # and so do the balls built at each radius.  On the finite model's torus
    # Z_N x Z_N (N in place of the group), each mask holds the one before it
    # is the elements the BFS reaches within that radius
    if isinstance(group, int):
        lengths = torus_lengths(group, tuple_bfs_spheres(
            _torus_add(group), _torus_gens(group), (0, 0), 2 * group))
        for steps in (range(radius + 1), (0, 1, 4, 5, 11, radius)):
            inner = np.zeros((group, group), dtype=bool)
            for r in steps:
                mask = reps.torus_ball(group, r)
                assert np.array_equal(mask, lengths <= r) and not (inner & ~mask).any(), r
                inner = mask
        return
    whole = groups.word_metric(group)
    want = [groups.ball_measure(whole, r) for r in range(radius, -1, -1)][::-1]
    for steps in (range(radius + 1), (0, 1, 4, 5, 11, radius)):
        metric = groups.word_metric(group)
        for r in steps:
            assert groups.ball_measure(metric, r) == want[r], r
            assert len(groups.ball(groups.word_metric(group), r).keys) == want[r], r
        assert np.array_equal(metric._h3_sizes, whole._h3_sizes)


def test_word_length_of_random_heisenberg_elements_matches_the_tuple_bfs():
    dist = heisenberg_bfs_distances(14)
    rng = np.random.default_rng(5)
    elements = list(dist)
    metric = groups.word_metric(groups.discrete_heisenberg())
    for i in rng.choice(len(elements), 300, replace=False):
        el = elements[i]
        assert length(metric, el) == dist[el], el
    # elements drawn from a box, most of them far outside the 14-ball
    box = [tuple(int(c) for c in rng.integers(-6, 7, 3)) for _ in range(100)]
    for el in box:
        if el in dist:
            assert length(metric, el) == dist[el], el
        else:
            assert length(metric, el) > 14, el


def test_closed_word_length_matches_the_bfs_on_a_ball_and_its_box():
    # the closed form gives every element of the radius 20 ball (68,079 of
    # them) its BFS distance, and every other element of the ball's bounding
    # box |x|, |y| <= 20, |z| <= 100 a length over 20
    dist = heisenberg_bfs_distances(20)
    assert len(dist) == 68079
    for el in itertools.product(range(-20, 21), range(-20, 21), range(-100, 101)):
        got = h3_length(*el)
        if el in dist:
            assert got == dist[el], el
        else:
            assert got > 20, el
    # each branch through the metric: a^6 b^6 at x + y, [a, b] = (0, 0, 1)
    # with z > M^2, a^3 b^6 a^-3 = (0, 6, -18) on a wall, and their flips
    metric = groups.word_metric(groups.discrete_heisenberg())
    a6b6 = (6, 6, 36)
    assert functools.reduce(heisenberg_mul, [(1, 0, 0)] * 6 + [(0, 1, 0)] * 6) == a6b6
    for el, want in (((6, 6, 36), 12), ((-6, 6, -36), 12), ((6, -6, -36), 12),
                     ((-6, -6, 36), 12), ((0, 0, 1), 4), ((0, 0, -1), 4),
                     ((0, 6, -18), 12), ((3, 4, 20), dist[(3, 4, 20)])):
        assert length(metric, el) == want, el


def test_growth_annular_and_folner_sweeps_grow_each_word_ball_once(monkeypatch, tmp_path):
    # each sweep sizes its H3 word balls in one pass out to its largest
    # radius, and reads every smaller one from the cached sizes
    sizes = groups._h3_ball_sizes
    radii = []

    def counted(radius):
        radii.append(radius)
        return sizes(radius)

    monkeypatch.setattr(groups, "_h3_ball_sizes", counted)
    metric = groups.word_metric(groups.discrete_heisenberg())
    groups.fit_growth_exponent(metric, [4, 5, 6, 8])
    assert radii == [8]
    metric = groups.word_metric(groups.discrete_heisenberg())
    groups.estimate_annular_decay(metric, [4, 8, 12], [0.25, 0.5])
    assert radii == [8, 11]  # open balls
    metric = groups.word_metric(groups.discrete_heisenberg())
    groups.folner_exhaustion(metric, 1.0, 3, 4.0)
    assert radii == [8, 11, 12]
    # a geometry run sizes once: its growth sweep reaches the largest radius
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                          "geometry_heisenberg.ini")
    cli.run_experiment("geometry", config, str(tmp_path))
    assert radii == [8, 11, 12, 12]
    # the budget check before a run's first stage sizes its largest ball
    # first, on the run's own metric, so check and run share one pass
    far = tmp_path / "far.ini"
    far.write_text("[geometry]\ngroup = discrete_heisenberg\ngrowth_radii = 10,20,30,50\n")
    cli.run_experiment("geometry", str(far), str(tmp_path / "far"))
    assert radii == [8, 11, 12, 12, 50]


def test_word_ball_budget_is_checked_before_any_key_is_allocated(monkeypatch):
    # one element under the exact size of the H3 radius 20 ball (68,079)
    # raises, naming the variable, before its 545 kB of keys are allocated;
    # at the exact size the ball is built
    h3 = groups.discrete_heisenberg()
    monkeypatch.setenv(groups.BUDGET_ENV_VAR, "68078")
    for measure in (groups.ball, groups.ball_measure):
        tracemalloc.start()
        try:
            with pytest.raises(groups.BudgetExceededError,
                               match=rf"radius 20 has 68079 elements, over budget 68078 "
                                     rf"\({groups.BUDGET_ENV_VAR}\)"):
                measure(groups.word_metric(h3), 20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 68079, (measure, peak)
    monkeypatch.setenv(groups.BUDGET_ENV_VAR, "68079")
    assert len(groups.ball(groups.word_metric(h3), 20.0).keys) == 68079
    # the columns the size is summed from are counted first: the radius 30
    # ball's 1,861 columns pass no budget of 1000, nor does a radius far past it
    monkeypatch.setenv(groups.BUDGET_ENV_VAR, "1000")
    for radius in (30.0, 1e300):
        for measure in (groups.ball, groups.ball_measure):
            with pytest.raises(groups.BudgetExceededError, match="z-columns, over budget 1000"):
                measure(groups.word_metric(h3), radius)
    # the radius 5 ball of Z^4 and the radius 4 ball of Z^5 (681 elements
    # each) fit, and one more radius does not; so does a radius far past it
    for dim, radius in ((4, 5), (5, 4)):
        lattice = groups.word_metric(groups.integer_lattice(dim))
        assert groups.ball(lattice, radius).measure == groups.ball_measure(lattice, radius) == 681
        for far in (radius + 1, 1e300):
            with pytest.raises(groups.BudgetExceededError, match=groups.BUDGET_ENV_VAR):
                groups.ball(lattice, far)


def test_ball_boxes_never_refuse_a_ball_within_the_budget(monkeypatch):
    # with the budget set to a word ball's exact size, no radius is refused
    for dim, top in ((1, 400), (2, 100), (3, 30), (4, 12), (5, 8)):
        # |ell^1 ball of Z^d| = sum_k 2^k C(d, k) C(r, k)
        for r in range(0, top):
            size = sum(2 ** k * math.comb(dim, k) * math.comb(r, k) for k in range(dim + 1))
            monkeypatch.setenv(groups.BUDGET_ENV_VAR, str(size))
            assert groups.ball(groups.word_metric(groups.integer_lattice(dim)), r).measure == size
    for r, size in enumerate(itertools.accumulate(heisenberg_bfs_oracle(20))):
        monkeypatch.setenv(groups.BUDGET_ENV_VAR, str(size))
        assert groups.ball(groups.word_metric(groups.discrete_heisenberg()), r).measure == size
    monkeypatch.delenv(groups.BUDGET_ENV_VAR)
    # nor does the Folner count with the budget at |K_n| |K|
    metrics = [(groups.word_metric(groups.integer_lattice(3)), range(0, 9), (0, 1, 2)),
               (groups.word_metric(groups.discrete_heisenberg()), range(0, 15), (0, 1, 2, 3)),
               (groups.heisenberg_gauge_metric(), (1.0, 2.5, 4.0, 7.5), (0.5, 1.0, 2.0, 3.0))]
    for metric, kn_radii, k_radii in metrics:
        pairs = [(groups.ball(metric, float(r)), groups.ball(metric, float(r_k)))
                 for r in kn_radii for r_k in k_radii]
        for kn, k in pairs:
            monkeypatch.setenv(groups.BUDGET_ENV_VAR, str(int(kn.measure * k.measure)))
            groups.folner_ratio(metric, kn, k)
        monkeypatch.delenv(groups.BUDGET_ENV_VAR)


def gauge_ball_keys_scalar(radius):
    """The closed and the open gauge ball, as one Python gauge per candidate:
    every (x, y, z) with x^2 + y^2 <= r^2 + 1 and |z - xy / 2| <= r^2 / 4,
    which the gauge's two terms bound (the 1 keeps rounding ties in)."""
    m = int(math.floor(radius))
    span = radius * radius / 4.0
    closed, opened = [], []
    for x in range(-m, m + 1):
        for y in range(-m, m + 1):
            if x * x + y * y > radius * radius + 1:
                continue
            z_mid = x * y / 2.0
            for z in range(int(math.ceil(z_mid - span)), int(math.floor(z_mid + span)) + 1):
                g = cygan_gauge((x, y, z))
                if g <= radius:
                    closed.append((x, y, z))
                    if g < radius:
                        opened.append((x, y, z))
    h3 = groups.discrete_heisenberg()
    return [np.sort(groups._keys(h3, np.array(pts, dtype=np.int64).reshape(-1, 3)))
            for pts in (closed, opened)]


def test_gauge_ball_keys_match_the_scalar_loop():
    # integer radii put elements exactly on the sphere, such as (r, 0, 0) and,
    # for even r, (0, 0, r^2 / 4): closed and open balls differ by those ties
    rng = np.random.default_rng(9)
    radii = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 0.5, 2.5, 5.5, 7.5, 12.0, 16.5, 20.0, 30.0,
             *rng.uniform(0.1, 10.0, 6).tolist()]
    # radii equal to an element's scalar gauge make that element a tie; take
    # those where numpy's vectorised pow rounds differently from libm's pow
    els = itertools.product(range(-5, 6), range(0, 6), range(-9, 10))
    quartics = [(x * x + y * y) ** 2 + 16.0 * t * t  # as in cygan_gauge
                for x, y, z in els for t in [z - x * y / 2.0]]
    vector = (np.array(quartics) ** 0.25).tolist()
    differ = [q ** 0.25 for q, v in zip(quartics, vector) if q ** 0.25 != v]
    radii += differ[:6] + rng.choice([q ** 0.25 for q in quartics], 4).tolist()
    ties = 0
    for radius in radii:
        for closed, want in zip((True, False), gauge_ball_keys_scalar(radius)):
            got = groups.ball(groups.heisenberg_gauge_metric(), radius, closed)
            assert np.array_equal(got.keys, want), (radius, closed)
            # the measure sums the same columns' lengths, on a fresh metric
            assert groups.ball_measure(groups.heisenberg_gauge_metric(), radius,
                                       closed) == len(want), (radius, closed)
            ties += len(want) if closed else -len(want)
    assert ties > 0


def test_gauge_ball_memory_is_bounded_by_its_keys():
    # the radius 30 ball has 998,459 elements among 1,681,892 candidates of
    # the z spans |z - xy / 2| <= r^2 / 4; all candidates at once held about
    # 87 bytes each (139 MB traced).  Its columns' runs of keys stay under
    # four times the keys' bytes
    tracemalloc.start()
    try:
        keys = groups.ball(groups.heisenberg_gauge_metric(), 30.0).keys
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) == 998459
    assert np.all(keys[1:] > keys[:-1])
    assert peak < 4 * keys.nbytes
